#!/usr/bin/env python3
"""Builds and runs the pstlb end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <dispatch_floor|bulk_scaling|serve_mix>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test <names|verify>

The first run configures and builds the library and the benchmark binary
(Release) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Outputs (canonical BENCH
JSON, span file of traced runs) land in the build directory's out/.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build() -> Path:
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", "pstlb_e2e"])
    # Compiler temporaries stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return out / "pstlb_e2e"


def run_timeout(argv) -> float:
    """Twice the measured time plus room for set-up and the traced probes."""
    seconds = 0.0
    if "--seconds" in argv[:-1]:
        try:
            seconds = float(argv[argv.index("--seconds") + 1])
        except ValueError:
            pass
    return 2 * seconds + 120


def main(argv):
    try:
        binary = build()
    except (RuntimeError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    cmd = [str(binary), *argv, "--out-dir", str(build_dir() / "out")]
    # Its own process group: the binary starts set-up processes of its own,
    # and a timeout or interrupt stops them all.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=run_timeout(argv))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

// pstlb_cli — the pSTL-Bench command-line driver.
//
// One measurement per invocation, either simulated on one of the paper's
// machines or natively on this host:
//
//   pstlb_cli --mode=sim --machine="Mach C" --kernel=sort
//             --backend=GCC-GNU --threads=128 --size=2^30 --explain
//   pstlb_cli --mode=native --kernel=reduce --backend=steal
//             --threads=4 --size=2^20 --reps=9
//   pstlb_cli --mode=compare baseline.json candidate.json --threshold=2
//   pstlb_cli --mode=trend results_dir/
//   pstlb_cli --list
//
// Without arguments it prints usage plus a small native demo (exit 0), so
// it is safe to run in bulk alongside the figure/table binaries.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backends/backend_registry.hpp"
#include "bench_core/generators.hpp"
#include "bench_core/regress.hpp"
#include "bench_core/report.hpp"
#include "bench_core/result_store.hpp"
#include "bench_core/wrapper.hpp"
#include "counters/counters.hpp"
#include "pstlb/fault.hpp"
#include "pstlb/pstlb.hpp"
#include "sim/run.hpp"
#include "trace/analysis/advisor.hpp"
#include "trace/analysis/span_graph.hpp"
#include "trace/analysis/trace_reader.hpp"

namespace pstlb::cli {
namespace {

struct options {
  std::string mode = "demo";  // sim | native | suite | demo
  std::string machine = "Mach A";
  std::string kernel = "reduce";
  std::string backend;  // sim: profile name; native: registry name
  unsigned threads = 0;
  double size = 1 << 20;
  double k_it = 1;
  int reps = 5;
  bool explain = false;
  bool csv = false;
  std::string alloc = "custom";  // custom | default
  // --mode=suite: crash-isolated matrix runner.
  std::string kernels = "reduce,inclusive_scan";  // comma-separated
  std::string backends_list;                      // empty = all native
  std::string journal_path = "pstlb_suite.jsonl";
  unsigned timeout_ms = 60000;
  int retries = 1;
  std::string fault;  // PSTLB_FAULT value injected into the children
  // --mode=analyze: offline trace analysis.
  std::string trace_path;  // --trace=PATH or positional
  bool json = false;       // JSON verdict instead of annotated text
  // --mode=compare / --mode=trend: bench-result documents.
  std::vector<std::string> positionals;  // files (compare) or dir (trend)
  double threshold = 2.0;                // noise threshold, percent
};

double parse_size(const std::string& text) {
  const auto caret = text.find('^');
  if (caret != std::string::npos) {
    const double base = std::atof(text.substr(0, caret).c_str());
    const double exp = std::atof(text.substr(caret + 1).c_str());
    return std::pow(base, exp);
  }
  return std::atof(text.c_str());
}

bool parse_args(int argc, char** argv, options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* key) -> const char* {
      const std::size_t len = std::strlen(key);
      if (arg.rfind(key, 0) == 0 && arg.size() > len && arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    if (arg == "--list") {
      opt.mode = "list";
    } else if (arg == "--explain") {
      opt.explain = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (const char* mode_v = value_of("--mode")) {
      opt.mode = mode_v;
    } else if (const char* machine_v = value_of("--machine")) {
      opt.machine = machine_v;
    } else if (const char* kernel_v = value_of("--kernel")) {
      opt.kernel = kernel_v;
    } else if (const char* backend_v = value_of("--backend")) {
      opt.backend = backend_v;
    } else if (const char* threads_v = value_of("--threads")) {
      opt.threads = static_cast<unsigned>(std::atoi(threads_v));
    } else if (const char* size_v = value_of("--size")) {
      opt.size = parse_size(size_v);
    } else if (const char* kit_v = value_of("--k_it")) {
      opt.k_it = std::atof(kit_v);
    } else if (const char* reps_v = value_of("--reps")) {
      opt.reps = std::atoi(reps_v);
    } else if (const char* alloc_v = value_of("--alloc")) {
      opt.alloc = alloc_v;
    } else if (const char* kernels_v = value_of("--kernels")) {
      opt.kernels = kernels_v;
    } else if (const char* backends_v = value_of("--backends")) {
      opt.backends_list = backends_v;
    } else if (const char* journal_v = value_of("--journal")) {
      opt.journal_path = journal_v;
    } else if (const char* timeout_v = value_of("--timeout-ms")) {
      opt.timeout_ms = static_cast<unsigned>(std::atoi(timeout_v));
    } else if (const char* retries_v = value_of("--retries")) {
      opt.retries = std::atoi(retries_v);
    } else if (const char* fault_v = value_of("--fault")) {
      opt.fault = fault_v;
    } else if (const char* trace_v = value_of("--trace")) {
      opt.trace_path = trace_v;
    } else if (const char* threshold_v = value_of("--threshold")) {
      opt.threshold = std::atof(threshold_v);
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--help" || arg == "-h") {
      opt.mode = "help";
    } else if (!arg.empty() && arg[0] != '-') {
      // Positional operand: the trace file for --mode=analyze, the two
      // documents for --mode=compare, the directory for --mode=trend.
      opt.positionals.push_back(arg);
      if (opt.trace_path.empty()) { opt.trace_path = arg; }
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void print_usage() {
  std::puts(
      "pstlb_cli — pSTL-Bench driver\n"
      "  --mode=sim|native      simulated paper machine or this host\n"
      "  --machine=\"Mach A..F\"  (sim) machine from Table 2 (+ARM preview)\n"
      "  --kernel=NAME          find for_each reduce inclusive_scan sort copy\n"
      "                         transform count min_element exclusive_scan\n"
      "  --backend=NAME         sim: GCC-SEQ GCC-TBB GCC-GNU GCC-HPX ICC-TBB\n"
      "                              NVC-OMP   (default: all)\n"
      "                         native: seq fork_join omp_dyn steal futures\n"
      "  --threads=N            participants (default: machine cores / env)\n"
      "  --size=N|2^K           elements (default 2^20)\n"
      "  --k_it=N               for_each inner-loop iterations (default 1)\n"
      "  --alloc=custom|default (sim) first-touch strategy (Fig. 1)\n"
      "  --reps=N               (native) repetitions, median reported; every\n"
      "                         result is checked against std (exit 4 if not)\n"
      "  --explain              (sim) per-phase breakdown\n"
      "  --csv                  machine-readable one-line-per-result output\n"
      "  --list                 machines, kernels, backends\n"
      "suite mode (--mode=suite): crash-isolated native matrix runner\n"
      "  --kernels=a,b,...      kernels to run (default reduce,inclusive_scan)\n"
      "  --backends=a,b,...     native backends (default: all)\n"
      "  --journal=PATH         JSONL results journal; reruns resume from it\n"
      "  --timeout-ms=N         per-run wall-clock budget (default 60000)\n"
      "  --retries=N            extra attempts for failed runs (default 1)\n"
      "  --fault=SPEC           PSTLB_FAULT value injected into the children\n"
      "analyze mode (--mode=analyze): offline work-span / advisor analysis\n"
      "  pstlb_cli --mode=analyze trace.json   (or --trace=PATH)\n"
      "  --json                 machine-readable verdict (advisor schema)\n"
      "  exit 1 when the trace contains events the analyzer cannot parse\n"
      "compare mode (--mode=compare): statistical regression detection\n"
      "  pstlb_cli --mode=compare baseline.json candidate.json\n"
      "  --threshold=PCT        noise threshold on median deltas (default 2)\n"
      "  --json                 machine-readable report\n"
      "  exit 1 when any result regressed, 2 on unreadable documents\n"
      "trend mode (--mode=trend): multi-run change-point detection\n"
      "  pstlb_cli --mode=trend DIR   (BENCH_*.json, sorted by name)");
}

void print_list() {
  std::puts("machines (sim):");
  for (const sim::machine* m : sim::machines::cpus_extended()) {
    std::printf("  %-7s %-12s %3u cores, %u NUMA nodes, STREAM %5.1f/%5.1f GB/s\n",
                m->name.c_str(), m->arch.c_str(), m->cores, m->numa_nodes,
                m->bw1_gbs, m->bwall_gbs);
  }
  std::puts("gpus (sim): Mach D (Tesla T4), Mach E (Ampere A2)");
  std::puts("kernels:");
  for (sim::kernel k :
       {sim::kernel::find, sim::kernel::for_each, sim::kernel::reduce,
        sim::kernel::inclusive_scan, sim::kernel::sort, sim::kernel::copy,
        sim::kernel::transform, sim::kernel::count, sim::kernel::min_element,
        sim::kernel::exclusive_scan}) {
    std::printf("  %s\n", std::string(sim::kernel_name(k)).c_str());
  }
  std::puts("sim backends:");
  for (const sim::backend_profile* p : sim::profiles::all()) {
    std::printf("  %s\n", p->name.c_str());
  }
  std::puts("native backends:");
  for (backends::backend_id id : backends::all_backends()) {
    std::printf("  %s\n", std::string(backends::name_of(id)).c_str());
  }
}

const char* tier_name(sim::memory_tier tier) {
  switch (tier) {
    case sim::memory_tier::l2: return "L2";
    case sim::memory_tier::llc: return "LLC";
    case sim::memory_tier::dram: return "DRAM";
  }
  return "?";
}

int run_sim(const options& opt) {
  const sim::machine& m = sim::machines::by_name(opt.machine);
  sim::kernel_params params;
  params.kind = sim::parse_kernel(opt.kernel);
  params.n = opt.size;
  params.k_it = opt.k_it;
  const unsigned threads = opt.threads == 0 ? m.cores : opt.threads;
  const auto alloc = opt.alloc == "default" ? numa::placement::sequential_touch
                                            : numa::placement::parallel_touch;

  std::vector<const sim::backend_profile*> profs;
  if (opt.backend.empty()) {
    profs = sim::profiles::all();
  } else {
    profs.push_back(&sim::profiles::by_name(opt.backend));
  }

  const double baseline = sim::gcc_seq_seconds(m, params);
  if (opt.csv) {
    std::puts("mode,machine,kernel,backend,threads,size,k_it,alloc,seconds,speedup");
  }
  for (const sim::backend_profile* prof : profs) {
    const auto r = sim::run(m, *prof, params, threads, alloc);
    if (opt.csv) {
      std::printf("sim,%s,%s,%s,%u,%.0f,%.0f,%s,%.9g,%.4g\n", m.name.c_str(),
                  opt.kernel.c_str(), prof->name.c_str(), threads, params.n,
                  params.k_it, opt.alloc.c_str(), r.supported ? r.seconds : -1.0,
                  r.supported ? baseline / r.seconds : 0.0);
      continue;
    }
    if (!r.supported) {
      std::printf("%-8s : N/A (no parallel implementation)\n", prof->name.c_str());
      continue;
    }
    std::printf("%-8s : %10.6f s   speedup vs GCC-SEQ %6.2f   BW %7.1f GiB/s\n",
                prof->name.c_str(), r.seconds, baseline / r.seconds,
                r.ctrs.bandwidth_gib_per_s());
    if (opt.explain) {
      for (const auto& phase : r.phases) {
        std::printf("    %-22s %10.6f s  %s%s  %8.2f GiB  chunks=%zu  tier=%s\n",
                    phase.label.c_str(), phase.seconds,
                    phase.parallel ? "par" : "seq", "",
                    phase.bytes / (1024.0 * 1024 * 1024), phase.chunks,
                    tier_name(phase.tier));
      }
    }
  }
  return 0;
}

/// Exit status of a native run whose result differs from the std one.
constexpr int kMismatchExit = 4;

/// Thrown after a rep whose result differs from the std result.
struct result_mismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Whether a result over the 1..n input equals the std one. Sums of
/// integer-valued doubles are exact while they stay below 2^53, which holds
/// up to n = 2^26; past that a reassociated sum may round differently, by
/// at most n ulps.
bool same_value(elem_t got, elem_t want, index_t n) {
  const elem_t ulps = static_cast<elem_t>(n) * std::numeric_limits<elem_t>::epsilon();
  return got == want || std::abs(got - want) <= std::abs(want) * ulps;
}

/// One native kernel over `data` (1..n) and `out`: `run` makes the timed
/// call, `ok` compares what it produced with the std result, which is
/// computed once, before the reps, and `prepare` readies the input for the
/// next call outside the timed region.
struct native_kernel {
  std::function<void()> run;
  std::function<bool()> ok;
  std::function<void()> prepare = [] {};
};

native_kernel make_native_kernel(const options& opt, const exec::policy& policy,
                                 bench::ft_vector& data, std::vector<elem_t>& out) {
  const auto n = static_cast<index_t>(data.size());
  const std::string& kernel = opt.kernel;
  // `got` against the std result, element by element.
  const auto matches = [n](const auto& got, std::vector<elem_t> want) {
    return [&got, n, want = std::move(want)] {
      return std::equal(got.begin(), got.end(), want.begin(), want.end(),
                        [n](elem_t a, elem_t b) { return same_value(a, b, n); });
    };
  };
  // A scalar result (a value or a position) of the last call and the std one.
  struct scalar {
    elem_t got = 0;
    elem_t want = 0;
  };
  const auto last = std::make_shared<scalar>();
  const auto scalar_ok = [last, n] { return same_value(last->got, last->want, n); };
  const auto at = [&data](auto it) { return static_cast<elem_t>(it - data.begin()); };
  std::vector<elem_t> want(data.begin(), data.end());
  if (kernel == "for_each") {
    const auto k_it = static_cast<std::size_t>(opt.k_it);
    const auto body = [k_it](elem_t& x) {
      volatile std::size_t iterations = k_it;
      elem_t acc{};
      for (std::size_t i = 0; i < iterations; ++i) { acc += 1; }
      x = acc;
    };
    std::for_each(want.begin(), want.end(), body);
    return {[&policy, &data, body] {
              pstlb::for_each(policy, data.begin(), data.end(), body);
            },
            matches(data, std::move(want))};
  }
  if (kernel == "find") {
    // Every call looks for another value; value v sits at position v - 1.
    return {[&policy, &data, n, last, at, seed = std::uint64_t{1}]() mutable {
              const auto target = static_cast<elem_t>(bench::find_target(n, seed++) + 1);
              last->want = target - 1;
              last->got = at(pstlb::find(policy, data.begin(), data.end(), target));
            },
            scalar_ok};
  }
  if (kernel == "reduce") {
    last->want = std::reduce(data.begin(), data.end());
    return {[&policy, &data, last] {
              last->got = pstlb::reduce(policy, data.begin(), data.end());
            },
            scalar_ok};
  }
  if (kernel == "count") {
    last->want = static_cast<elem_t>(std::count(data.begin(), data.end(), elem_t{1}));
    return {[&policy, &data, last] {
              last->got = static_cast<elem_t>(
                  pstlb::count(policy, data.begin(), data.end(), elem_t{1}));
            },
            scalar_ok};
  }
  if (kernel == "min_element") {
    last->want = at(std::min_element(data.begin(), data.end()));
    return {[&policy, &data, last, at] {
              last->got = at(pstlb::min_element(policy, data.begin(), data.end()));
            },
            scalar_ok};
  }
  if (kernel == "inclusive_scan") {
    std::inclusive_scan(data.begin(), data.end(), want.begin());
    return {[&policy, &data, &out] {
              pstlb::inclusive_scan(policy, data.begin(), data.end(), out.begin());
            },
            matches(out, std::move(want))};
  }
  if (kernel == "exclusive_scan") {
    std::exclusive_scan(data.begin(), data.end(), want.begin(), elem_t{0});
    return {[&policy, &data, &out] {
              pstlb::exclusive_scan(policy, data.begin(), data.end(), out.begin(),
                                    elem_t{0});
            },
            matches(out, std::move(want))};
  }
  if (kernel == "sort") {
    std::sort(want.begin(), want.end());
    return {[&policy, &data] { pstlb::sort(policy, data.begin(), data.end()); },
            matches(data, std::move(want)),
            [&data, n, seed = std::uint64_t{1}]() mutable {
              bench::shuffle_values(data.data(), n, seed++);
            }};
  }
  if (kernel == "copy") {
    return {[&policy, &data, &out] {
              pstlb::copy(policy, data.begin(), data.end(), out.begin());
            },
            matches(out, std::move(want))};
  }
  if (kernel == "transform") {
    const auto twice = [](elem_t x) { return 2 * x; };
    std::transform(want.begin(), want.end(), want.begin(), twice);
    return {[&policy, &data, &out, twice] {
              pstlb::transform(policy, data.begin(), data.end(), out.begin(), twice);
            },
            matches(out, std::move(want))};
  }
  std::fprintf(stderr, "native mode does not support kernel %s\n", kernel.c_str());
  std::exit(2);
}

/// Times `opt.reps` calls of the kernel after one warmup. Every call's
/// result is checked against the std result between the timed calls, before
/// the kernel prepares its next input; a mismatch throws result_mismatch
/// naming the kernel, backend and rep.
double native_median_seconds(const options& opt, const exec::policy& policy,
                             const char* backend_name = nullptr,
                             unsigned threads = 0) {
  const auto n = static_cast<index_t>(opt.size);
  auto data = bench::generate_increment(policy, n);
  std::vector<elem_t> out(data.size());
  const native_kernel kernel = make_native_kernel(opt, policy, data, out);
  int rep = -1;  // the rep check() reads; rep 0 is the warmup
  const auto check = [&] {
    if (rep >= 0 && !kernel.ok()) {
      throw result_mismatch(opt.kernel + " on " +
                            std::string(backends::name_of(policy.backend)) +
                            " differs from the std result at rep " + std::to_string(rep));
    }
    ++rep;
  };
  const bench::reps_result run = bench::run_reps(
      "cli", std::max(1, opt.reps),
      [&] {
        check();
        kernel.prepare();
      },
      kernel.run);
  check();
  if (backend_name != nullptr) {
    bench::record_native_result(opt.kernel, backend_name, opt.size, threads,
                                run.samples);
  }
  return bench::regress::median(run.samples);
}

int run_native(const options& opt) {
  const unsigned threads = opt.threads == 0 ? exec::default_threads() : opt.threads;
  std::vector<backends::backend_id> ids;
  if (opt.backend.empty()) {
    ids.assign(backends::all_backends().begin(), backends::all_backends().end());
  } else {
    ids.push_back(backends::parse_backend(opt.backend));
  }
  if (opt.csv) {
    std::puts("mode,kernel,backend,threads,size,k_it,median_seconds");
  }
  for (backends::backend_id id : ids) {
    double median = 0.0;
    try {
      exec::policy policy = exec::make_policy(id, threads);
      policy.seq_threshold = 0;
      median = native_median_seconds(
          opt, policy, std::string(backends::name_of(id)).c_str(), threads);
    } catch (const result_mismatch& e) {
      std::fprintf(stderr, "pstlb_cli: %s\n", e.what());
      return kMismatchExit;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pstlb_cli: %s/%s failed: %s\n", opt.kernel.c_str(),
                   std::string(backends::name_of(id)).c_str(), e.what());
      return 1;
    }
    if (opt.csv) {
      std::printf("native,%s,%s,%u,%.0f,%.0f,%.9g\n", opt.kernel.c_str(),
                  std::string(backends::name_of(id)).c_str(), threads, opt.size,
                  opt.k_it, median);
    } else {
      std::printf("%-10s : median %10.6f s over %d reps (%.2f Melem/s)\n",
                  std::string(backends::name_of(id)).c_str(), median, opt.reps,
                  opt.size / median / 1e6);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Crash-isolated suite runner (--mode=suite).
//
// Every (kernel, backend) cell of the matrix runs in a forked child with a
// wall-clock budget, so a crash, abort, injected fault, or hang in one
// benchmark cannot take down the rest of the suite. The parent never creates
// a thread pool (fork() with live pool threads would leave the child's pool
// mutexes in limbo); it only forks, polls, and journals. Each result is
// appended to a JSONL journal the moment it is known — one O_APPEND write
// per line — so a rerun after any interruption resumes where the suite
// stopped instead of repeating finished work.
// ---------------------------------------------------------------------------

struct suite_spec {
  std::string kernel;
  std::string backend;
};

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  for (const char c : text) {
    if (c == ',') {
      if (!item.empty()) { out.push_back(item); }
      item.clear();
    } else {
      item += c;
    }
  }
  if (!item.empty()) { out.push_back(item); }
  return out;
}

std::string journal_key(const suite_spec& spec) {
  return "\"kernel\":\"" + spec.kernel + "\",\"backend\":\"" + spec.backend + "\"";
}

/// Runs one benchmark in a forked child. Returns the status string for the
/// journal ("ok" | "timeout" | "exit:<code>" | "signal:<sig>") and the
/// child-reported median (seconds) when ok.
std::string run_isolated(const options& opt, const suite_spec& spec,
                         double& median_out) {
  int pipe_fd[2];
  if (::pipe(pipe_fd) != 0) { return "exit:pipe"; }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fd[0]);
    ::close(pipe_fd[1]);
    return "exit:fork";
  }
  if (pid == 0) {
    // Child: configure injection for this run only, execute the benchmark,
    // ship the median back through the pipe. Any exception is a clean
    // nonzero exit — the parent records it; crashes and hangs are the
    // parent's problem by design.
    ::close(pipe_fd[0]);
    if (!opt.fault.empty()) {
      // Arm programmatically — the injection layer latched the (absent)
      // PSTLB_FAULT env var at process start, before the fork.
      fault::set(fault::parse(opt.fault));
      ::setenv("PSTLB_FAULT", opt.fault.c_str(), 1);
    }
    int code = 0;
    try {
      options child_opt = opt;
      child_opt.kernel = spec.kernel;
      const unsigned threads =
          opt.threads == 0 ? exec::default_threads() : opt.threads;
      const backends::backend_id id = backends::parse_backend(spec.backend);
      exec::policy policy = exec::make_policy(id, threads);
      policy.seq_threshold = 0;
      const double median = native_median_seconds(child_opt, policy);
      (void)!::write(pipe_fd[1], &median, sizeof median);
    } catch (const result_mismatch& e) {
      std::fprintf(stderr, "pstlb_cli: %s\n", e.what());
      code = kMismatchExit;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pstlb_cli: %s/%s failed: %s\n", spec.kernel.c_str(),
                   spec.backend.c_str(), e.what());
      code = 3;
    } catch (...) {
      code = 3;
    }
    ::close(pipe_fd[1]);
    ::_exit(code);
  }
  // Parent: poll for exit with a deadline; SIGKILL on budget overrun.
  ::close(pipe_fd[1]);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opt.timeout_ms);
  int status = 0;
  bool timed_out = false;
  for (;;) {
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) { break; }
    if (done < 0) {
      ::close(pipe_fd[0]);
      return "exit:wait";
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      timed_out = true;
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string result;
  if (timed_out) {
    result = "timeout";
  } else if (WIFSIGNALED(status)) {
    result = "signal:" + std::to_string(WTERMSIG(status));
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    result = "exit:" + std::to_string(WEXITSTATUS(status));
  } else {
    double median = 0.0;
    if (::read(pipe_fd[0], &median, sizeof median) == sizeof median) {
      median_out = median;
      result = "ok";
    } else {
      result = "exit:nodata";  // clean exit but no result came through
    }
  }
  ::close(pipe_fd[0]);
  return result;
}

int run_suite(const options& opt) {
  std::vector<std::string> backend_names = split_list(opt.backends_list);
  if (backend_names.empty()) {
    for (backends::backend_id id : backends::all_backends()) {
      backend_names.emplace_back(backends::name_of(id));
    }
  }
  std::vector<suite_spec> specs;
  for (const std::string& kernel : split_list(opt.kernels)) {
    for (const std::string& backend : backend_names) {
      specs.push_back(suite_spec{kernel, backend});
    }
  }

  // Resume: any spec the journal already records as ok is done.
  std::size_t resumed = 0;
  std::vector<bool> done(specs.size(), false);
  for (const std::string& line : bench::journal::read_lines(opt.journal_path)) {
    if (line.find("\"status\":\"ok\"") == std::string::npos) { continue; }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!done[i] && line.find(journal_key(specs[i])) != std::string::npos) {
        done[i] = true;
        ++resumed;
        break;
      }
    }
  }
  if (resumed > 0) {
    std::printf("resuming: %zu of %zu runs already ok in %s\n", resumed,
                specs.size(), opt.journal_path.c_str());
  }

  bench::journal log;
  if (!log.open(opt.journal_path)) {
    std::fprintf(stderr, "pstlb_cli: cannot open journal %s\n",
                 opt.journal_path.c_str());
    return 2;
  }

  bench::table summary("suite results");
  summary.set_header({"kernel", "backend", "status", "median s", "attempts"});
  std::size_t failures = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const suite_spec& spec = specs[i];
    if (done[i]) {
      summary.add_row({spec.kernel, spec.backend, "ok (journal)", "-", "0"});
      continue;
    }
    std::string status;
    double median = 0.0;
    int attempt = 0;
    const int max_attempts = 1 + std::max(0, opt.retries);
    for (attempt = 1; attempt <= max_attempts; ++attempt) {
      status = run_isolated(opt, spec, median);
      char line[256];
      std::snprintf(line, sizeof line,
                    "{%s,\"status\":\"%s\",\"median_s\":%.9g,\"attempt\":%d}",
                    journal_key(spec).c_str(), status.c_str(),
                    status == "ok" ? median : -1.0, attempt);
      log.append(line);
      if (status == "ok") { break; }
    }
    if (status != "ok") { ++failures; }
    summary.add_row({spec.kernel, spec.backend, status,
                     status == "ok" ? bench::fmt(median, 6) : "-",
                     std::to_string(std::min(attempt, max_attempts))});
  }
  summary.print(std::cout);
  if (failures > 0) {
    std::printf("%zu of %zu runs failed (journal: %s)\n", failures,
                specs.size(), opt.journal_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Offline analysis (--mode=analyze): trace.json -> span graph -> verdict.
// ---------------------------------------------------------------------------

int run_analyze(const options& opt) {
  if (opt.trace_path.empty()) {
    std::fprintf(stderr,
                 "pstlb_cli: --mode=analyze needs a trace file "
                 "(positional or --trace=PATH)\n");
    return 2;
  }
  trace::analysis::parsed_trace parsed;
  try {
    parsed = trace::analysis::parse_chrome_trace_file(opt.trace_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pstlb_cli: %s\n", e.what());
    return 2;
  }
  const auto g = trace::analysis::build_span_graph(parsed.events, parsed.tids);

  // Fuse counter tracks when the trace carries them: achieved bandwidth
  // needs bytes + wall time, which the offline reader cannot see, but a
  // perf IPC track rides along as a hint.
  trace::analysis::advice_hints hints;
  auto ipc = parsed.counters.find("perf/ipc");
  if (ipc != parsed.counters.end() && !ipc->second.empty()) {
    hints.ipc = ipc->second.back().value;
  }
  const auto v = trace::analysis::advise(g, hints);

  if (opt.json) {
    trace::analysis::write_json(v, std::cout);
  } else {
    std::printf("trace    : %s\n", opt.trace_path.c_str());
    std::printf("events   : %zu parsed (%zu objects, %zu unparsed), "
                "%zu thread labels, %zu counter tracks\n",
                parsed.events.size(), parsed.total_objects, parsed.unparsed,
                parsed.thread_names.size(), parsed.counters.size());
    std::printf("graph    : %zu nodes, %zu edges; %llu steals, "
                "%llu spawns, %llu splits\n",
                g.nodes.size(), g.edges.size(),
                static_cast<unsigned long long>(g.steals),
                static_cast<unsigned long long>(g.spawns),
                static_cast<unsigned long long>(g.splits));
    trace::analysis::write_text(v, std::cout);
    if (!g.phases.empty()) {
      std::puts("phases (critical-path share first):");
      for (const auto& ph : g.phases) {
        std::printf("  %-12s work %10.3f ms   on critical path %10.3f ms\n",
                    ph.label.c_str(), ph.work_ns * 1e-6, ph.critical_ns * 1e-6);
      }
    }
  }
  if (parsed.unparsed > 0) {
    std::fprintf(stderr, "pstlb_cli: %zu trace objects could not be parsed\n",
                 parsed.unparsed);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Bench-result comparison (--mode=compare) and trend (--mode=trend).
// ---------------------------------------------------------------------------

int run_compare(const options& opt) {
  if (opt.positionals.size() != 2) {
    std::fprintf(stderr,
                 "pstlb_cli: --mode=compare needs exactly two documents: "
                 "baseline.json candidate.json\n");
    return 2;
  }
  bench::results::run_document baseline;
  bench::results::run_document candidate;
  try {
    baseline = bench::results::load_file(opt.positionals[0]);
    candidate = bench::results::load_file(opt.positionals[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pstlb_cli: %s\n", e.what());
    return 2;
  }
  bench::regress::options ropt;
  ropt.noise_threshold_pct = opt.threshold;
  const bench::regress::report rep =
      bench::regress::compare(baseline, candidate, ropt);
  if (opt.json) {
    bench::regress::write_json(rep, std::cout);
  } else {
    bench::regress::write_text(rep, std::cout);
  }
  return rep.overall == bench::regress::verdict::regressed ? 1 : 0;
}

int run_trend(const options& opt) {
  if (opt.positionals.size() != 1) {
    std::fprintf(stderr,
                 "pstlb_cli: --mode=trend needs one directory of BENCH_*.json "
                 "documents (chronological by file name)\n");
    return 2;
  }
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(opt.positionals[0], ec)) {
    if (!entry.is_regular_file()) { continue; }
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "pstlb_cli: cannot read directory %s: %s\n",
                 opt.positionals[0].c_str(), ec.message().c_str());
    return 2;
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::fprintf(stderr, "pstlb_cli: no .json documents in %s\n",
                 opt.positionals[0].c_str());
    return 2;
  }
  std::vector<bench::results::run_document> runs;
  std::vector<std::string> labels;
  for (const std::string& path : paths) {
    try {
      runs.push_back(bench::results::load_file(path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pstlb_cli: skipping %s: %s\n", path.c_str(),
                   e.what());
      continue;
    }
    labels.push_back(std::filesystem::path(path).filename().string());
  }
  if (runs.empty()) { return 2; }
  bench::regress::options ropt;
  ropt.noise_threshold_pct = opt.threshold;
  const auto series = bench::regress::trend(runs, labels, ropt);
  bench::regress::write_trend_text(series, std::cout);
  return 0;
}

int run_demo() {
  print_usage();
  std::puts("\ndemo: native reduce, 2^18 doubles, all backends:");
  options opt;
  opt.kernel = "reduce";
  opt.size = 1 << 18;
  opt.reps = 3;
  opt.threads = 4;
  return run_native(opt);
}

}  // namespace
}  // namespace pstlb::cli

int main(int argc, char** argv) {
  pstlb::cli::options opt;
  if (!pstlb::cli::parse_args(argc, argv, opt)) { return 2; }
  auto& store = pstlb::bench::results::result_store::instance();
  store.set_suite_from_argv0(argv[0]);
  if (opt.mode == "help") {
    pstlb::cli::print_usage();
    return 0;
  }
  if (opt.mode == "list") {
    pstlb::cli::print_list();
    return 0;
  }
  if (opt.mode == "sim") { return pstlb::cli::run_sim(opt); }
  if (opt.mode == "native") {
    const int rc = pstlb::cli::run_native(opt);
    store.flush_to_env();
    return rc;
  }
  if (opt.mode == "suite") { return pstlb::cli::run_suite(opt); }
  if (opt.mode == "analyze") { return pstlb::cli::run_analyze(opt); }
  if (opt.mode == "compare") { return pstlb::cli::run_compare(opt); }
  if (opt.mode == "trend") { return pstlb::cli::run_trend(opt); }
  return pstlb::cli::run_demo();
}

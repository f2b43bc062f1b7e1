// Canonical benchmark result schema + emitter (DESIGN.md §16).
//
// Every sample from every bench — simulated figure/table rows, native
// warmup/reps loops, ablations, microbenches — is recorded here as a
// structured `sample_result` (suite/kernel/backend/size/threads, the raw
// per-rep samples, their median and a bootstrap CI) inside a `run_envelope`
// carrying the provenance needed to decide whether two runs are comparable
// at all: git SHA, hostname, topology fingerprint, counter-provider label,
// and a snapshot of every set PSTLB_* knob.
//
// Export is wired once, in PSTLB_BENCH_MAIN / pstlb_cli: when
// PSTLB_BENCH_JSON names a file or directory, the process-wide store writes
// one schema-versioned JSON document (validated by
// tests/support/bench_result.schema.json) at exit. bench_core/regress reads
// these documents back for statistical comparison; CI commits reference
// documents under bench/baselines/ and gates on them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pstlb::bench::results {

inline constexpr int schema_version = 1;

/// Where a measurement came from. Comparability differs: `sim` results are
/// host-independent (the simulator is pure arithmetic), `native` results are
/// only comparable between runs on the same host/topology.
enum class provenance : std::uint8_t { sim, native };

std::string_view provenance_name(provenance p) noexcept;

/// One benchmark series: a fixed (suite, kernel, backend, machine, size,
/// threads, k_it) point and its raw per-repetition samples. Derived medians
/// and bootstrap CIs are filled by finalize() / result_store::record().
struct sample_result {
  std::string suite;    // e.g. "tab5/for_each_k1/Mach A/GCC-TBB"
  std::string kernel;   // "for_each", "sort", ...
  std::string backend;  // sim profile or native backend name
  std::string machine;  // simulated machine name, or "host"
  provenance from = provenance::sim;
  double size = 0;       // elements
  unsigned threads = 0;  // participants
  double k_it = 1;       // for_each inner iterations
  std::string unit = "seconds";
  bool lower_is_better = true;
  std::vector<double> samples;  // raw per-rep values, chronological

  // Derived (finalize()):
  double median = 0;
  double ci_lo = 0;  // bootstrap 95% CI of the median
  double ci_hi = 0;

  /// Identity used to match results between two runs.
  std::string key() const;
  /// Recomputes median and bootstrap CI from `samples`.
  void finalize();
};

/// Run-level provenance envelope. `comparable_native()` additionally
/// requires hostname + topology agreement; knob agreement is required for
/// everything (a PSTLB_SIMD override changes which leaves a run executes).
struct run_envelope {
  int version = schema_version;
  std::string suite;     // producing binary, e.g. "tab5_speedup_summary"
  std::string git_sha;   // GITHUB_SHA env, else compile-time, else "unknown"
  std::string hostname;
  std::string topology;  // "nodes=N llcs=L cores=C cpus=P page=B"
  std::string provider;  // active counters provider label
  std::uint64_t unix_time = 0;  // informational; never part of comparability
  /// Every set PSTLB_* knob, name -> value, sorted by name. Output-path-only
  /// knobs (PSTLB_BENCH_JSON, PSTLB_TRACE_FILE, PSTLB_STATS_FILE) are
  /// excluded — they cannot change measurements.
  std::vector<std::pair<std::string, std::string>> knobs;
};

/// Envelope for the current process (topology fingerprint from
/// numa::topology/tree, provider from counters, knobs from the env
/// registry). `suite` is caller-provided.
run_envelope current_envelope(std::string suite);

/// A complete result document: one envelope + all results of one run.
struct run_document {
  run_envelope envelope;
  std::vector<sample_result> results;
};

/// Serializes `doc` as the canonical JSON document (one object, stable field
/// order, schema_version first).
void write_json(const run_document& doc, std::ostream& os);

/// Appends the envelope as one JSON object (the `"envelope"` value of the
/// canonical document). Shared with other exporters (trace/stats_registry)
/// so every artifact carries the same provenance block.
void append_envelope_json(const run_envelope& e, std::string& out);

/// Parses a canonical document. Throws std::runtime_error on malformed JSON
/// or a missing/unsupported schema_version.
run_document parse_json(std::string_view json);

/// File convenience; throws std::runtime_error when unreadable.
run_document load_file(const std::string& path);

/// Process-wide collector. record() merges samples into an existing result
/// with the same key() (gbench may invoke one benchmark body several times),
/// capping stored raw samples at `max_samples_per_result`. flush_to_env()
/// honors PSTLB_BENCH_JSON:
///   - unset/empty, or an empty store: no-op, returns false;
///   - a directory (exists as one, or trailing '/'): writes
///     <dir>/BENCH_<suite>.json;
///   - anything else: writes exactly that path.
class result_store {
 public:
  static constexpr std::size_t max_samples_per_result = 64;

  static result_store& instance();

  /// Names the run (used for the envelope and the BENCH_<suite>.json file).
  /// set_suite_from_argv0 strips directories from argv[0].
  void set_suite(std::string suite);
  void set_suite_from_argv0(const char* argv0);

  /// True when PSTLB_BENCH_JSON is set — callers can skip sample collection
  /// entirely when export is off.
  static bool export_enabled();

  void record(sample_result r);
  std::size_t size() const;
  run_document document() const;
  bool flush_to_env();
  void reset();  // tests

 private:
  result_store() = default;
  std::string suite_ = "bench";
  std::vector<sample_result> results_;
};

}  // namespace pstlb::bench::results

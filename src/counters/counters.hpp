// Hardware-performance-counter facade (PAPI high-level / Likwid Marker API
// style, Section 3.2 of the paper).
//
// Three providers feed the same counter_set (PSTLB_COUNTERS=sim|native|perf,
// see counters/provider.hpp):
//   - native: wall-clock time from steady_clock plus software-accounted
//     traffic/flops that instrumented kernels report via report_work().
//     Modeled accounting, exact for our deterministic kernels.
//   - sim: the machine simulator fills a counter_set analytically
//     (instructions, vector-width split, memory volume) — this is what the
//     Table 3/4 model columns print.
//   - perf: measured counts from per-thread perf_event_open(2) groups
//     (counters/perf_provider). Regions snapshot the aggregate before and
//     after and store the delta in the hw_* fields below.
//
// Regions follow the Likwid Marker discipline: counters cover only the
// wrapped STL call, never setup or data shuffling.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "counters/provider.hpp"
#include "trace/trace.hpp"

namespace pstlb::counters {

struct counter_set {
  double instructions = 0;   // executed instructions (any)
  double fp_scalar = 0;      // scalar FLOP count
  double fp_128 = 0;         // 128-bit packed FLOP instructions
  double fp_256 = 0;         // 256-bit packed FLOP instructions
  double fp_512 = 0;         // 512-bit packed FLOP instructions
  double bytes_read = 0;     // DRAM read volume
  double bytes_written = 0;  // DRAM write volume
  double seconds = 0;        // region wall time

  // Scheduler telemetry (src/trace): filled by regions while PSTLB_TRACE is
  // on. Zero in trace-off runs.
  double sched_steals_ok = 0;
  double sched_steals_failed = 0;
  double sched_tasks_spawned = 0;
  double sched_chunks = 0;

  // Measured hardware counters (counters/provider): filled by regions when
  // the active provider measures (PSTLB_COUNTERS=perf), summed over every
  // attached thread and multiplex-scaled. Zero under sim/native, where the
  // modeled `instructions` field above is the only instruction count.
  double hw_instructions = 0;
  double hw_cycles = 0;
  double hw_cache_refs = 0;
  double hw_cache_misses = 0;
  double hw_stalled_cycles = 0;
  double hw_threads = 0;  // thread groups sampled (summed across +=)

  counter_set& operator+=(const counter_set& other);

  /// True when a measuring provider filled the hw_* fields.
  bool has_hw() const { return hw_instructions > 0 || hw_cycles > 0; }
  /// Instructions per cycle; 0 without cycle data.
  double ipc() const { return hw_cycles > 0 ? hw_instructions / hw_cycles : 0; }
  /// Cache misses per reference; 0 without reference data.
  double cache_miss_rate() const {
    return hw_cache_refs > 0 ? hw_cache_misses / hw_cache_refs : 0;
  }

  /// Total FLOPs counting packed lanes (2 per 128-bit, 4 per 256-bit op,
  /// 8 per 512-bit op).
  double flops() const {
    return fp_scalar + 2 * fp_128 + 4 * fp_256 + 8 * fp_512;
  }
  double gflops_per_s() const { return seconds > 0 ? flops() / seconds * 1e-9 : 0; }
  double bytes_total() const { return bytes_read + bytes_written; }
  double bandwidth_gib_per_s() const {
    return seconds > 0 ? bytes_total() / seconds / (1024.0 * 1024.0 * 1024.0) : 0;
  }
};

/// Adds software-accounted work to the *innermost active* region of the
/// calling thread's region stack, exactly once. Guarantees, tested in
/// tests/counters:
///   - a thread with no active region: silent no-op (never an error);
///   - nested regions: only the innermost active region accumulates the
///     work — outer regions do not see it, and nothing is double-counted;
///   - a stopped region never accumulates: stop() removes the region from
///     the stack even when an inner region is still active, so late
///     reports fall through to the next enclosing active region.
/// Kernels in bench_core call this with their known traffic/flop counts.
void report_work(const counter_set& work);

/// RAII measurement region (the hw_counters_begin/end pair of Listing 4).
/// While PSTLB_TRACE is on, a region also captures the process-wide
/// scheduler-telemetry delta (steals, spawns, chunks) between construction
/// and stop() into the sched_* fields of its result. When the active
/// counter provider measures (PSTLB_COUNTERS=perf), the region likewise
/// captures the aggregate hardware-counter delta into the hw_* fields.
class region {
 public:
  explicit region(std::string_view name);
  ~region();
  region(const region&) = delete;
  region& operator=(const region&) = delete;

  /// Finishes measurement early and returns the result. Idempotent.
  const counter_set& stop();

  const counter_set& result() const { return result_; }

 private:
  friend void report_work(const counter_set& work);

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  counter_set accumulated_;  // work reported while active
  counter_set result_;
  trace::sched_totals sched_before_;  // telemetry baseline (tracing only)
  hw_totals hw_before_;               // hardware baseline (measuring providers)
  bool traced_ = false;
  bool stopped_ = false;
};

/// Likwid-style marker aggregation: every region's result is folded into a
/// process-wide table keyed by region name.
struct marker_stats {
  counter_set total;
  std::uint64_t calls = 0;
};

class marker_registry {
 public:
  static marker_registry& instance();

  void add(const std::string& name, const counter_set& sample);
  std::map<std::string, marker_stats> snapshot() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, marker_stats> table_;
};

}  // namespace pstlb::counters

// Scalability advisor: fuses a region's work/span decomposition with
// memory-traffic and scheduler evidence into one actionable verdict —
// "predicted max speedup 9.3x at 32t; bottleneck: scatter (memory_bound)".
//
// Two front doors produce the same `verdict`:
//
//   advise(span_graph, hints)   trace side: Brent's bound from the causal
//                               DAG (T1/T-inf), critical-path wait shares,
//                               remote-steal fraction; optional counter
//                               hints (achieved GB/s, IPC) sharpen the
//                               memory-bound call.
//
//   advise_model(...)           model side: a closed-form mirror of
//                               sim::simulate_cpu's scheduling/bandwidth
//                               math, swept over thread counts. The
//                               homogeneous-chunk phases the DES schedules
//                               admit an exact wave analysis, so the mirror
//                               tracks sim::run closely — the agreement
//                               test (predicted vs simulated speedup within
//                               tolerance) keeps the two from drifting.
//
// Verdicts serialize to JSON (schema in tests/support/advisor_verdict.
// schema.json) and to the annotated text the CLI prints.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/backend_profile.hpp"
#include "sim/machine.hpp"
#include "sim/memory_system.hpp"
#include "trace/analysis/span_graph.hpp"

namespace pstlb::trace::analysis {

enum class bound_kind : std::uint8_t {
  compute_bound,         // scaling limited only by core count
  memory_bound,          // bandwidth saturation caps the dominant phase
  span_bound,            // the critical path itself is too long (T1/T-inf)
  scheduler_bound,       // fork/queue/steal overhead dominates
  remote_traffic_bound,  // memory-bound *and* the traffic crosses nodes
};

std::string_view bound_kind_name(bound_kind b) noexcept;

struct speedup_point {
  unsigned threads = 1;
  double speedup = 1;
};

struct verdict {
  std::string source;  // "trace" or "model:<backend>@<machine>:<kernel>"
  double work_s = 0;   // T1
  double span_s = 0;   // T-inf
  double max_speedup = 1;      // asymptote / best point of the curve
  unsigned best_threads = 1;   // where the curve (effectively) peaks
  double speedup_at_best = 1;
  std::vector<speedup_point> curve;  // predicted speedup over 1,2,4,...

  bound_kind bound = bound_kind::compute_bound;
  std::string bottleneck_phase;  // dominant critical-path / phase-time label
  std::string detail;            // one-line human explanation

  // Attribution evidence (fractions; 0 when the side cannot observe them).
  double lookback_wait_frac = 0;  // of the critical path's wall length
  double steal_wait_frac = 0;
  double queue_wait_frac = 0;
  double remote_steal_frac = 0;   // remote steals / successful steals
  double achieved_bw_frac = 0;    // achieved GB/s over machine peak

  unsigned threads_observed = 0;  // trace side: tids that did work

  /// "predicted max speedup 9.3x at 32t; bottleneck: scatter (memory_bound)"
  std::string summary() const;
};

/// Optional fused evidence for the trace-side verdict: region memory
/// traffic (counters/report, PR 5), wall time, the machine's aggregate
/// bandwidth, and perf-derived IPC / miss rate (PR 3). Zero/negative =
/// unknown; the advisor only uses what is present.
struct advice_hints {
  double bytes_moved = 0;
  double wall_s = 0;
  double peak_bw_gbs = 0;
  double ipc = 0;
  double cache_miss_pct = -1;
};

verdict advise(const span_graph& g, const advice_hints& hints = {});

/// Closed-form mirror of sim::simulate_cpu (legacy steal-locality path,
/// which is what sim::run uses). Returns the predicted seconds for one
/// call, or a negative value when the backend does not support the kernel.
double predict_seconds(const sim::machine& m, const sim::backend_profile& prof,
                       const sim::kernel_params& params, unsigned threads,
                       numa::placement alloc,
                       sim::thread_placement placement);

/// Model-side verdict: sweeps threads over {1,2,4,...,max_threads}, rates
/// each point as predicted_seconds(1 thread is the GCC-SEQ baseline via
/// sim::gcc_seq_seconds) and classifies the binding resource of the
/// dominant phase at the best point.
verdict advise_model(const sim::machine& m, const sim::backend_profile& prof,
                     const sim::kernel_params& params, unsigned max_threads,
                     numa::placement alloc,
                     sim::thread_placement placement = sim::thread_placement::scatter);

void write_json(const verdict& v, std::ostream& os);
void write_text(const verdict& v, std::ostream& os);

}  // namespace pstlb::trace::analysis

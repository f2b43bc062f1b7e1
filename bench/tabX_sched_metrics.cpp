// Table X (extension): the Table 3/4 overhead story retold from scheduler
// telemetry instead of instruction counts.
//
// Runs the same fig3-style for_each kernel natively on each of this
// library's parallel backends with tracing enabled, and reports what the
// schedulers actually *did*: tasks heap-spawned, ranges split, steals
// attempted, chunks executed with their size distribution, busy/idle
// fractions and the load-imbalance ratio. The paper's Table 3 ordering
// (TBB lean, GNU static, HPX heavyweight) reappears here as:
//   fork_join    — zero spawns, zero steals, chunks = static blocks
//   steal        — zero spawns, ranges split in-place, steals > fork_join
//   task_futures — highest spawn count (one heap task per chunk)
//
// Usage: tabX_sched_metrics [n] (default 2^20 elements, 8 threads via
// PSTL_NUM_THREADS or the default). PSTLB_TRACE_FILE still works: the
// at-exit hook writes the combined Perfetto trace of all backends.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_core/report.hpp"
#include "counters/counters.hpp"
#include "pstlb/pstlb.hpp"
#include "trace/sched_metrics.hpp"
#include "trace/trace.hpp"

namespace pstlb::bench {
namespace {

constexpr unsigned kThreads = 8;
constexpr int kReps = 3;

/// Fig. 3's kernel shape: low-intensity for_each over a large range.
void run_foreach(backends::backend_id id, index_t n) {
  exec::policy policy = exec::make_policy(id, kThreads);
  policy.seq_threshold = 0;
  std::vector<elem_t> data(static_cast<std::size_t>(n), elem_t{1});
  for (int rep = 0; rep < kReps; ++rep) {
    pstlb::for_each(policy, data.begin(), data.end(),
                    [](elem_t& v) { v += 1; });
  }
}

struct backend_row {
  std::string name;
  trace::sched_metrics window;
};

backend_row measure(backends::backend_id id, const std::string& name, index_t n) {
  const trace::sched_metrics before = trace::collect();
  {
    counters::region region("tabX/" + name);  // folds sched_* into markers
    run_foreach(id, n);
  }
  return {name, trace::delta(before, trace::collect())};
}

void report(std::ostream& os, const std::vector<backend_row>& rows, index_t n) {
  table t("Table X: scheduler telemetry for " + std::to_string(kReps) +
          " calls of X::for_each, n=" + pow2_label(static_cast<double>(n)) +
          ", " + std::to_string(kThreads) + " threads");
  t.set_header({"metric", "fork_join", "omp_dynamic", "steal", "task_futures"});
  auto row = [&](const std::string& label, auto metric) {
    std::vector<std::string> cells{label};
    for (const backend_row& r : rows) { cells.push_back(metric(r.window)); }
    t.add_row(cells);
  };
  using M = const trace::sched_metrics&;
  row("tasks spawned", [](M m) { return eng(static_cast<double>(m.tasks_spawned())); });
  row("range splits", [](M m) { return eng(static_cast<double>(m.range_splits())); });
  row("steals ok", [](M m) { return eng(static_cast<double>(m.steals_ok())); });
  row("steals failed", [](M m) { return eng(static_cast<double>(m.steals_failed())); });
  row("chunks executed", [](M m) { return eng(static_cast<double>(m.chunks())); });
  row("chunk elems p50", [](M m) { return eng(m.chunk_size_p50()); });
  row("chunk elems p95", [](M m) { return eng(m.chunk_size_p95()); });
  row("busy (s, all threads)", [](M m) { return fmt(m.busy_s(), 4); });
  row("idle (s, all threads)", [](M m) { return fmt(m.idle_s(), 4); });
  row("load imbalance", [](M m) { return fmt(m.load_imbalance(), 2); });
  t.print(os);

  // The marker view: the same telemetry as optional sched columns next to
  // the Likwid-style region table (what PSTLB_WRAP_TIMING benches get).
  // When a measuring counter provider is active (PSTLB_COUNTERS=perf), the
  // measured hardware columns appear too, provider-labeled.
  const bool with_hw = counters::active_kind() == counters::provider_kind::perf;
  table mt("Marker regions with scheduler columns");
  std::vector<std::string> header{"region", "calls", "seconds"};
  for (std::string& h : sched_headers()) { header.push_back(std::move(h)); }
  if (with_hw) {
    for (std::string& h : hw_headers()) { header.push_back(std::move(h)); }
  }
  mt.set_header(std::move(header));
  for (const auto& [name, stats] : counters::marker_registry::instance().snapshot()) {
    std::vector<std::string> cells{name, std::to_string(stats.calls),
                                   fmt(stats.total.seconds, 4)};
    for (std::string& c : sched_cells(stats.total)) { cells.push_back(std::move(c)); }
    if (with_hw) {
      for (std::string& c : hw_cells(stats.total)) { cells.push_back(std::move(c)); }
    }
    mt.add_row(cells);
  }
  mt.print(os);
  os << "Reading: task_futures heap-spawns one task per chunk (the HPX-like\n"
        "instruction overhead of Tab. 3); steal sheds ranges in-place and\n"
        "balances via steals; fork_join pre-slices statically and neither\n"
        "spawns nor steals. Open PSTLB_TRACE_FILE in ui.perfetto.dev for the\n"
        "per-thread timeline.\n";
}

}  // namespace
}  // namespace pstlb::bench

int main(int argc, char** argv) {
  using namespace pstlb;
  using namespace pstlb::bench;
  const index_t n = argc > 1 ? static_cast<index_t>(std::atoll(argv[1]))
                             : index_t{1} << 20;
  // Telemetry requires tracing; this binary exists to show it, so switch it
  // on regardless of PSTLB_TRACE (trace-off behaviour is covered by tests).
  trace::set_enabled(true);
  std::vector<backend_row> rows;
  rows.push_back(measure(backends::backend_id::fork_join, "fork_join", n));
  rows.push_back(measure(backends::backend_id::omp_dynamic, "omp_dynamic", n));
  rows.push_back(measure(backends::backend_id::steal, "steal", n));
  rows.push_back(measure(backends::backend_id::task_futures, "task_futures", n));
  report(std::cout, rows, n);
  return 0;
}

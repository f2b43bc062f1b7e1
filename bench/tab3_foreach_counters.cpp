// Table 3: executed instructions and derived metrics for 100 calls of
// X::for_each (k_it = 1) on Mach A (Skylake), per backend.
//
// Two sections: the paper reproduction (machine-simulator model, every
// counter row labeled [sim]) and a measured section that runs the same
// kernel shape natively on this host's backends inside counters::regions.
// With PSTLB_COUNTERS=perf the measured rows are real perf_event_open
// counts; otherwise they degrade to the wall-clock row plus a note.
#include "common.hpp"

#include "pstlb/pstlb.hpp"

#include <utility>
#include <vector>

namespace pstlb::bench {
namespace {

sim::kernel_params params() {
  sim::kernel_params p;
  p.kind = sim::kernel::for_each;
  p.n = kN30;
  p.k_it = 1;
  return p;
}

void register_benchmarks() {
  for (const sim::backend_profile* prof : sim::profiles::parallel()) {
    register_sim_benchmark("tab3/for_each_counters/MachA/" + prof->name,
                           sim::machines::mach_a(), *prof, params(), 32);
  }
}

void sim_report(std::ostream& os) {
  constexpr double kCalls = 100;
  table t("Table 3: executed instructions in 100 calls to X::for_each (k_it=1) "
          "on Mach A (Skylake), 32 threads [provider: sim]");
  t.set_header({"metric", "GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP"});
  std::vector<counters::counter_set> samples;
  std::vector<std::string> names;
  for (const sim::backend_profile* prof : sim::profiles::parallel()) {
    const auto r = sim::run(sim::machines::mach_a(), *prof, params(), 32,
                            sim::paper_alloc_for(*prof));
    samples.push_back(r.ctrs);
    names.push_back(std::string(prof->name));
  }
  auto row = [&](const std::string& label, auto metric) {
    std::vector<std::string> cells{label};
    for (const auto& s : samples) { cells.push_back(metric(s)); }
    t.add_row(cells);
  };
  row(tagged("Instructions", "sim"), [&](const counters::counter_set& s) {
    return eng(s.instructions * kCalls);
  });
  row(tagged("FP scalar", "sim"), [&](const counters::counter_set& s) {
    return eng(s.fp_scalar * kCalls);
  });
  row(tagged("FP 128-bit packed", "sim"), [&](const counters::counter_set& s) {
    return eng(s.fp_128 * kCalls);
  });
  row(tagged("FP 256-bit packed", "sim"), [&](const counters::counter_set& s) {
    return eng(s.fp_256 * kCalls);
  });
  row(tagged("GFLOP/s", "sim"), [&](const counters::counter_set& s) {
    return fmt(s.flops() / s.seconds * 1e-9, 2);
  });
  row(tagged("Mem. bandwidth (GiB/s)", "sim"), [&](const counters::counter_set& s) {
    return fmt(s.bandwidth_gib_per_s(), 1);
  });
  row(tagged("Mem. data volume (GiB)", "sim"), [&](const counters::counter_set& s) {
    return fmt(s.bytes_total() * kCalls / (1024.0 * 1024 * 1024), 0);
  });
  t.print(os);
  os << "Paper reference (Tab. 3): instructions 1.72T/2.41T/3.83T/1.55T/2.24T;\n"
        "FP scalar 107G everywhere, no packed FP; volumes 2128/1925/1850/2151/\n"
        "1762 GiB; bandwidth 107.6/116.6/75.6/104.5/119.1 GiB/s.\n";
}

void measured_report(std::ostream& os) {
  constexpr index_t kMeasN = index_t{1} << 20;
  constexpr int kReps = 3;
  std::vector<elem_t> data(static_cast<std::size_t>(kMeasN), elem_t{1});
  const auto body = [&](const exec::policy& policy) {
    pstlb::for_each(policy, data.begin(), data.end(), [](elem_t& v) { v += 1; });
  };
  struct backend_sample {
    std::string name;
    counters::counter_set s;
  };
  const std::pair<backends::backend_id, const char*> measured_backends[] = {
      {backends::backend_id::fork_join, "fork_join"},
      {backends::backend_id::omp_dynamic, "omp_dynamic"},
      {backends::backend_id::steal, "steal"},
      {backends::backend_id::task_futures, "task_futures"}};
  std::vector<backend_sample> rows;
  for (const auto& [id, name] : measured_backends) {
    rows.push_back(
        {name, measure_backend(id, std::string("tab3/measured/") + name, kReps, body)});
  }

  const std::string p(provider_label());
  table t("Table 3 (measured, this host): " + std::to_string(kReps) +
          " calls of X::for_each, n=" + pow2_label(static_cast<double>(kMeasN)) +
          ", " + std::to_string(kMeasuredThreads) + " threads [provider: " + p + "]");
  t.set_header({"metric", "fork_join", "omp_dynamic", "steal", "task_futures"});
  auto row = [&](const std::string& label, auto metric) {
    std::vector<std::string> cells{label};
    for (const backend_sample& r : rows) { cells.push_back(metric(r.s)); }
    t.add_row(cells);
  };
  const bool measured = rows.front().s.has_hw();
  if (measured) {
    const double calls_elems = static_cast<double>(kReps) * static_cast<double>(kMeasN);
    row(tagged("Instructions", p), [](const counters::counter_set& s) {
      return eng(s.hw_instructions);
    });
    row(tagged("Instr / element", p), [&](const counters::counter_set& s) {
      return fmt(s.hw_instructions / calls_elems, 2);
    });
    row(tagged("IPC", p), [](const counters::counter_set& s) {
      return fmt(s.ipc(), 2);
    });
    row(tagged("Cache miss %", p), [](const counters::counter_set& s) {
      return fmt(100.0 * s.cache_miss_rate(), 1);
    });
    row("hw threads", [](const counters::counter_set& s) {
      return fmt(s.hw_threads, 0);
    });
  }
  row(tagged("Seconds", "native"), [](const counters::counter_set& s) {
    return fmt(s.seconds, 4);
  });
  t.print(os);
  if (measured) {
    os << "Reading: instructions/element should reproduce the paper's backend\n"
          "ordering — task_futures (per-chunk heap tasks, HPX-like) highest,\n"
          "then steal (splitting + steal traffic), then fork_join (static\n"
          "slices) lowest.\n";
  } else {
    os << "Hardware counters unavailable (provider=" << p
       << "): measured instruction rows omitted, wall clock only. Run with\n"
          "PSTLB_COUNTERS=perf on a perf-capable host (perf_event_paranoid <= 2)\n"
          "for measured counts.\n";
  }
}

void report(std::ostream& os) {
  sim_report(os);
  measured_report(os);
}

}  // namespace
}  // namespace pstlb::bench

using namespace pstlb::bench;
PSTLB_BENCH_MAIN(report)

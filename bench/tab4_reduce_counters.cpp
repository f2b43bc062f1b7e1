// Table 4: executed instructions and derived metrics for 100 calls of
// X::reduce on Mach A (Skylake), per backend. ICC and HPX vectorize with
// 256-bit packed operations; the rest stay scalar.
//
// Like tab3: the paper-reproduction section is simulator output ([sim]
// rows), followed by a measured section running X::reduce natively on this
// host's backends — real perf_event_open counts under PSTLB_COUNTERS=perf,
// graceful wall-clock-only degradation otherwise.
#include "common.hpp"

#include "pstlb/pstlb.hpp"

#include <utility>
#include <vector>

namespace pstlb::bench {
namespace {

sim::kernel_params params() {
  sim::kernel_params p;
  p.kind = sim::kernel::reduce;
  p.n = kN30;
  return p;
}

void register_benchmarks() {
  for (const sim::backend_profile* prof : sim::profiles::parallel()) {
    register_sim_benchmark("tab4/reduce_counters/MachA/" + prof->name,
                           sim::machines::mach_a(), *prof, params(), 32);
  }
}

void sim_report(std::ostream& os) {
  constexpr double kCalls = 100;
  table t("Table 4: executed instructions in 100 calls to X::reduce on Mach A "
          "(Skylake), 32 threads [provider: sim]");
  t.set_header({"metric", "GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP"});
  std::vector<counters::counter_set> samples;
  for (const sim::backend_profile* prof : sim::profiles::parallel()) {
    samples.push_back(sim::run(sim::machines::mach_a(), *prof, params(), 32,
                               sim::paper_alloc_for(*prof))
                          .ctrs);
  }
  auto row = [&](const std::string& label, auto metric) {
    std::vector<std::string> cells{label};
    for (const auto& s : samples) { cells.push_back(metric(s)); }
    t.add_row(cells);
  };
  row(tagged("Instructions (any)", "sim"), [&](const counters::counter_set& s) {
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
    return fmt(s.bytes_total() / (1024.0 * 1024 * 1024), 2);
  });
  t.print(os);
  os << "Paper reference (Tab. 4): instructions 188G/227G/1.74T/107G/295G;\n"
        "256-bit packed FP only for HPX and ICC (26G); per-call volume\n"
        "0.86-1.17 GiB; bandwidth 56.6-97.5 GiB/s.\n";
}

void measured_report(std::ostream& os) {
  constexpr index_t kMeasN = index_t{1} << 20;
  constexpr int kReps = 3;
  std::vector<elem_t> data(static_cast<std::size_t>(kMeasN), elem_t{1});
  elem_t sink = 0;
  const auto body = [&](const exec::policy& policy) {
    sink += pstlb::reduce(policy, data.begin(), data.end());
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
        {name, measure_backend(id, std::string("tab4/measured/") + name, kReps, body)});
  }
  benchmark::DoNotOptimize(sink);

  const std::string p(provider_label());
  table t("Table 4 (measured, this host): " + std::to_string(kReps) +
          " calls of X::reduce, n=" + pow2_label(static_cast<double>(kMeasN)) +
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
    os << "Reading: instructions/element ordering mirrors Tab. 4 — the\n"
          "task_futures (HPX-like) backend pays per-chunk task overhead, steal\n"
          "pays splitting/steal traffic, fork_join pays a static-slice minimum.\n";
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

// Shared scaffolding for the per-figure/per-table bench binaries.
//
// Figure/table benches are driven by the machine simulator (the paper's
// 32–128-core machines cannot be measured on a small development host; see
// DESIGN.md §1): each registered benchmark feeds the simulated seconds to
// Google Benchmark via manual timing, and after the gbench run the binary
// prints the figure/table in the paper's layout. The native legs of some
// figures (fig5, fig7, the counter tables) and abl_grain_native measure real
// wall time of our own backends instead; perfbench/ is the end-to-end native
// benchmark.
#pragma once

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "bench_core/report.hpp"
#include "bench_core/result_store.hpp"
#include "counters/counters.hpp"
#include "pstlb/exec.hpp"
#include "sim/run.hpp"

namespace pstlb::bench {

inline constexpr double kN30 = 1073741824.0;  // 2^30, the paper's large size

/// Thread count for the measured (native, this-host) sections of the
/// counter tables — modest so the tables stay honest on small hosts.
inline constexpr unsigned kMeasuredThreads = 4;

/// Measured-counter harness for the Table 3/4 benches: runs `body(policy)`
/// for backend `id` `reps` times inside one counters::region and returns the
/// region result. With PSTLB_COUNTERS=perf the hw_* fields carry real
/// instruction/cycle/cache counts aggregated over every worker thread; under
/// sim/native they stay zero and callers print the wall-clock row only.
template <class Body>
counters::counter_set measure_backend(backends::backend_id id,
                                      const std::string& region_name, int reps,
                                      Body&& body) {
  exec::policy policy = exec::make_policy(id, kMeasuredThreads);
  policy.seq_threshold = 0;
  counters::region region(region_name);
  for (int r = 0; r < reps; ++r) { body(policy); }
  return region.stop();
}

/// Registers a gbench entry whose iteration time is the simulated seconds of
/// one kernel call. When PSTLB_BENCH_JSON is set, every supported run is also
/// recorded into the canonical result store under the registered name, so all
/// fig/tab/abl binaries export the same schema without per-bench wiring.
inline void register_sim_benchmark(const std::string& name, const sim::machine& m,
                                   const sim::backend_profile& prof,
                                   sim::kernel_params params, unsigned threads) {
  benchmark::RegisterBenchmark(name.c_str(), [name, &m, &prof, params,
                                              threads](benchmark::State& state) {
    double seconds = 0;
    bool supported = false;
    std::vector<double> samples;
    for (auto _ : state) {
      const auto r = sim::run(m, prof, params, threads, sim::paper_alloc_for(prof));
      supported = r.supported;
      seconds = r.supported ? r.seconds : 0.0;
      state.SetIterationTime(seconds > 0 ? seconds : 1e-9);
      if (supported && results::result_store::export_enabled() &&
          samples.size() < results::result_store::max_samples_per_result) {
        samples.push_back(seconds);
      }
    }
    state.counters["sim_seconds"] = seconds;
    state.counters["speedup_vs_gcc_seq"] =
        seconds > 0 ? sim::gcc_seq_seconds(m, params) / seconds : 0.0;
    if (!samples.empty()) {
      results::sample_result r;
      r.suite = name;
      r.kernel = std::string(sim::kernel_name(params.kind));
      r.backend = std::string(prof.name);
      r.machine = m.name;
      r.from = results::provenance::sim;
      r.size = params.n;
      r.threads = threads;
      r.k_it = params.k_it;
      r.samples = std::move(samples);
      results::result_store::instance().record(std::move(r));
    }
  })->UseManualTime();
}

/// Standard main body: run gbench, print the paper-layout report, and flush
/// recorded results to PSTLB_BENCH_JSON (no-op when the knob is unset).
#define PSTLB_BENCH_MAIN(report_fn)                                   \
  int main(int argc, char** argv) {                                   \
    ::pstlb::bench::results::result_store::instance()                 \
        .set_suite_from_argv0(argv[0]);                               \
    ::benchmark::Initialize(&argc, argv);                             \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {       \
      return 1;                                                       \
    }                                                                 \
    register_benchmarks();                                            \
    ::benchmark::RunSpecifiedBenchmarks();                            \
    ::benchmark::Shutdown();                                          \
    report_fn(std::cout);                                             \
    ::pstlb::bench::results::result_store::instance().flush_to_env(); \
    return 0;                                                         \
  }

}  // namespace pstlb::bench

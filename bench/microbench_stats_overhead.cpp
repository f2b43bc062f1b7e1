// Microbenchmark: per-call cost of the always-on stats registry.
//
// The registry is compiled into every pstlb front-end, so its disabled hot
// path must be invisible (acceptance: <= 2 ns/call; the same bar the trace
// hooks met at 0.06 ns in their own microbench). Three variants:
//
//   stats_disabled    one relaxed load + branch (the shipping default)
//   stats_enabled     outermost call: two clock reads + relaxed adds
//   stats_nested      enabled, inner call under an outer scope: depth
//                     bookkeeping only, no clock
//
// The report prints ns/call for each plus a pass/fail line for the 2 ns/call
// budget.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_core/result_store.hpp"
#include "trace/stats_registry.hpp"

namespace pstlb::bench {
namespace {

void bm_stats_disabled(benchmark::State& state) {
  stats::set_enabled(false);
  for (auto _ : state) {
    stats::scoped_call call(stats::op::reduce);
    benchmark::DoNotOptimize(&call);
  }
}
BENCHMARK(bm_stats_disabled);

void bm_stats_enabled(benchmark::State& state) {
  stats::set_enabled(true);
  for (auto _ : state) {
    stats::scoped_call call(stats::op::reduce);
    benchmark::DoNotOptimize(&call);
  }
  stats::set_enabled(false);
  stats::reset();
}
BENCHMARK(bm_stats_enabled);

void bm_stats_nested(benchmark::State& state) {
  stats::set_enabled(true);
  stats::scoped_call outer(stats::op::sort);
  for (auto _ : state) {
    stats::scoped_call call(stats::op::merge);
    benchmark::DoNotOptimize(&call);
  }
  stats::set_enabled(false);
  stats::reset();
}
BENCHMARK(bm_stats_nested);

/// Direct wall-clock measurement (independent of gbench's loop overhead
/// model) used for the pass/fail verdict.
double measure_ns_per_call(bool enable, std::size_t iters) {
  stats::set_enabled(enable);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    stats::scoped_call call(stats::op::reduce);
    benchmark::DoNotOptimize(&call);
  }
  const auto t1 = std::chrono::steady_clock::now();
  stats::set_enabled(false);
  stats::reset();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

/// The disabled hot path's ns/call budget.
constexpr double budget_ns = 2.0;

void record(const char* backend, double ns_per_call, std::size_t iters) {
  if (!results::result_store::export_enabled()) { return; }
  results::sample_result r;
  r.kernel = "stats_scoped_call";
  r.backend = backend;
  r.machine = "host";
  r.from = results::provenance::native;
  r.size = static_cast<double>(iters);
  r.threads = 1;
  r.unit = "ns/call";
  r.samples = {ns_per_call};
  results::result_store::instance().record(std::move(r));
}

bool report(std::ostream& os) {
  constexpr std::size_t kIters = 20'000'000;
  // Warm up the TLS + branch predictor, then measure.
  measure_ns_per_call(false, 1'000'000);
  const double disabled = measure_ns_per_call(false, kIters);
  const double enabled = measure_ns_per_call(true, kIters / 10);
  record("disabled", disabled, kIters);
  record("enabled", enabled, kIters / 10);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "stats registry overhead: disabled %.3f ns/call, enabled "
                "%.2f ns/call (outermost, incl. 2 clock reads)\n",
                disabled, enabled);
  os << buf;
  std::snprintf(buf, sizeof(buf),
                disabled <= budget_ns
                    ? "PASS: disabled hot path <= %.2f ns/call\n"
                    : "FAIL: disabled hot path exceeds the %.2f ns/call budget\n",
                budget_ns);
  os << buf;
  return disabled <= budget_ns;
}

}  // namespace
}  // namespace pstlb::bench

int main(int argc, char** argv) {
  auto& store = pstlb::bench::results::result_store::instance();
  store.set_suite_from_argv0(argv[0]);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) { return 1; }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  const bool within_budget = pstlb::bench::report(std::cout);
  store.flush_to_env();
  return within_budget ? 0 : 1;
}

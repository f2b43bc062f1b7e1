// Ablation (native, real wall time): scheduling grain of this library's own
// backends on the current host. Shows the same overhead-vs-balance curve the
// simulator predicts, measured for real on whatever machine runs this.
// Every rep's sum is checked against n(n+1)/2 outside the timed region; a
// mismatch exits with status 1.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "backends/backend_registry.hpp"
#include "bench_core/generators.hpp"
#include "bench_core/wrapper.hpp"
#include "pstlb/pstlb.hpp"

namespace pstlb::bench {
namespace {

void bm_reduce_grain(benchmark::State& state, backends::backend_id id) {
  const index_t n = 1 << 18;
  exec::policy policy = exec::make_policy(id, 4);
  policy.seq_threshold = 0;
  policy.grain = static_cast<index_t>(state.range(0));
  auto data = generate_increment(policy, n);
  // 1 + 2 + ... + n: every partial sum is an integer below 2^53, so the
  // result is exact in any association order.
  const elem_t expected = static_cast<elem_t>(n) * static_cast<elem_t>(n + 1) / 2;
  for (auto _ : state) {
    elem_t sum = 0;
    PSTLB_WRAP_TIMING(state, "abl_grain", {
      sum = pstlb::reduce(policy, data.begin(), data.end());
      benchmark::DoNotOptimize(sum);
    });
    if (sum != expected) {
      std::fprintf(stderr,
                   "abl_grain_native: %s reduce at grain %lld returned %.17g, "
                   "expected %.17g\n",
                   std::string(backends::name_of(id)).c_str(),
                   static_cast<long long>(policy.grain), sum, expected);
      std::exit(1);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(elem_t)));
}

BENCHMARK_CAPTURE(bm_reduce_grain, steal, backends::backend_id::steal)
    ->Name("abl/grain/reduce/steal")
    ->RangeMultiplier(8)
    ->Range(64, 1 << 18)
    ->UseManualTime();
BENCHMARK_CAPTURE(bm_reduce_grain, omp_dyn, backends::backend_id::omp_dynamic)
    ->Name("abl/grain/reduce/omp_dyn")
    ->RangeMultiplier(8)
    ->Range(64, 1 << 18)
    ->UseManualTime();
BENCHMARK_CAPTURE(bm_reduce_grain, futures, backends::backend_id::task_futures)
    ->Name("abl/grain/reduce/futures")
    ->RangeMultiplier(8)
    ->Range(64, 1 << 18)
    ->UseManualTime();

}  // namespace
}  // namespace pstlb::bench

BENCHMARK_MAIN();

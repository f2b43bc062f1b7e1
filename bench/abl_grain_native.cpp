// Ablation (native, real wall time): scheduling grain of this library's own
// backends on the current host. Shows the same overhead-vs-balance curve the
// simulator predicts, measured for real on whatever machine runs this.
#include <benchmark/benchmark.h>

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
  for (auto _ : state) {
    PSTLB_WRAP_TIMING(state, "abl_grain", {
      elem_t sum = pstlb::reduce(policy, data.begin(), data.end());
      benchmark::DoNotOptimize(sum);
    });
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

// Native micro-benchmarks: REAL wall-clock measurements of this library's
// own backends on the current host, using the pSTL-Bench harness exactly as
// Listing 3 describes (generate with the policy, shuffle before each sort,
// WRAP_TIMING around the call, bytes-processed reporting).
//
// On the paper's machines these would produce Figs. 2-7 directly; on this
// container they measure launch overhead and sequential throughput honestly
// (thread counts beyond the core count time-share).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "backends/backend_registry.hpp"
#include "bench_core/generators.hpp"
#include "bench_core/wrapper.hpp"
#include "pstlb/pstlb.hpp"

namespace pstlb::bench {
namespace {

constexpr unsigned kThreads = 4;

exec::policy eager_policy(backends::backend_id id) {
  exec::policy p = exec::make_policy(id, kThreads);
  p.seq_threshold = 0;
  return p;
}

void bm_for_each(benchmark::State& state, backends::backend_id id) {
  const auto n = static_cast<index_t>(state.range(0));
  const auto k_it = static_cast<std::size_t>(state.range(1));
  const exec::policy policy = eager_policy(id);
  auto data = generate_increment(policy, n);
  // Listing 1's kernel: a volatile-bounded increment chain per element.
  const auto kernel = [k_it](elem_t& value) {
    volatile std::size_t iterations = k_it;
    elem_t acc{};
    for (std::size_t i = 0; i < iterations; ++i) { acc += 1; }
    value = acc;
  };
  for (auto _ : state) {
    PSTLB_WRAP_TIMING(state, "X::for_each",
                      pstlb::for_each(policy, data.begin(), data.end(), kernel));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * sizeof(elem_t)));
}

void bm_find(benchmark::State& state, backends::backend_id id) {
  const auto n = static_cast<index_t>(state.range(0));
  const exec::policy policy = eager_policy(id);
  auto data = generate_increment(policy, n);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const elem_t target = static_cast<elem_t>(find_target(n, seed++) + 1);
    PSTLB_WRAP_TIMING(state, "X::find", {
      auto it = pstlb::find(policy, data.begin(), data.end(), target);
      benchmark::DoNotOptimize(it);
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * sizeof(elem_t)));
}

void bm_reduce(benchmark::State& state, backends::backend_id id) {
  const auto n = static_cast<index_t>(state.range(0));
  const exec::policy policy = eager_policy(id);
  auto data = generate_increment(policy, n);
  for (auto _ : state) {
    PSTLB_WRAP_TIMING(state, "X::reduce", {
      elem_t sum = pstlb::reduce(policy, data.begin(), data.end());
      benchmark::DoNotOptimize(sum);
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * sizeof(elem_t)));
}

void bm_inclusive_scan(benchmark::State& state, backends::backend_id id) {
  const auto n = static_cast<index_t>(state.range(0));
  const exec::policy policy = eager_policy(id);
  auto data = generate_increment(policy, n);
  std::vector<elem_t> out(data.size());
  for (auto _ : state) {
    PSTLB_WRAP_TIMING(state, "X::inclusive_scan",
                      pstlb::inclusive_scan(policy, data.begin(), data.end(),
                                            out.begin()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * sizeof(elem_t)));
}

void bm_sort(benchmark::State& state, backends::backend_id id) {
  const auto n = static_cast<index_t>(state.range(0));
  const exec::policy policy = eager_policy(id);
  auto data = shuffled_permutation(n, 7);
  std::uint64_t seed = 100;
  for (auto _ : state) {
    shuffle_values(data.data(), n, seed++);  // re-randomize, as Listing 3 does
    PSTLB_WRAP_TIMING(state, "X::sort",
                      pstlb::sort(policy, data.begin(), data.end()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * sizeof(elem_t)));
}

#define PSTLB_REGISTER_NATIVE(fn, name)                                         \
  BENCHMARK_CAPTURE(fn, seq, backends::backend_id::seq)                         \
      ->Name(name "/seq")                                                       \
      ->Args({1 << 12, 1})                                                      \
      ->Args({1 << 18, 1})                                                      \
      ->UseManualTime();                                                        \
  BENCHMARK_CAPTURE(fn, fork_join, backends::backend_id::fork_join)             \
      ->Name(name "/fork_join")                                                 \
      ->Args({1 << 12, 1})                                                      \
      ->Args({1 << 18, 1})                                                      \
      ->UseManualTime();                                                        \
  BENCHMARK_CAPTURE(fn, steal, backends::backend_id::steal)                     \
      ->Name(name "/steal")                                                     \
      ->Args({1 << 12, 1})                                                      \
      ->Args({1 << 18, 1})                                                      \
      ->UseManualTime();                                                        \
  BENCHMARK_CAPTURE(fn, futures, backends::backend_id::task_futures)            \
      ->Name(name "/futures")                                                   \
      ->Args({1 << 12, 1})                                                      \
      ->Args({1 << 18, 1})                                                      \
      ->UseManualTime()

PSTLB_REGISTER_NATIVE(bm_for_each, "native/for_each");
PSTLB_REGISTER_NATIVE(bm_find, "native/find");
PSTLB_REGISTER_NATIVE(bm_reduce, "native/reduce");
PSTLB_REGISTER_NATIVE(bm_inclusive_scan, "native/inclusive_scan");
PSTLB_REGISTER_NATIVE(bm_sort, "native/sort");

// High-intensity for_each (the k_it knob of Listing 1).
BENCHMARK_CAPTURE(bm_for_each, steal, backends::backend_id::steal)
    ->Name("native/for_each_k100/steal")
    ->Args({1 << 14, 100})
    ->UseManualTime();
BENCHMARK_CAPTURE(bm_for_each, seq, backends::backend_id::seq)
    ->Name("native/for_each_k100/seq")
    ->Args({1 << 14, 100})
    ->UseManualTime();

}  // namespace
}  // namespace pstlb::bench

BENCHMARK_MAIN();

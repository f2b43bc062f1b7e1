// Native BabelStream-style bandwidth microbenchmarks (the paper anchors its
// roofline on STREAM, Table 2 last row, and cites BabelStream [9]).
//
// Four classic kernels expressed through the public parallel API:
//   copy   c[i] = a[i]
//   mul    b[i] = k * c[i]
//   add    c[i] = a[i] + b[i]
//   triad  a[i] = b[i] + k * c[i]
// plus dot (transform_reduce). Reports real GiB/s on this host.
#include <benchmark/benchmark.h>

#include "bench_core/generators.hpp"
#include "bench_core/wrapper.hpp"
#include "pstlb/pstlb.hpp"

namespace pstlb::bench {
namespace {

constexpr elem_t kScalar = 0.4;

struct stream_fixture {
  stream_fixture(backends::backend_id id, index_t n)
      : policy(exec::make_policy(id, 4)),
        a(make(n, 1.0)),
        b(make(n, 2.0)),
        c(make(n, 0.0)) {
    policy.seq_threshold = 0;
  }

  static std::vector<elem_t> make(index_t n, elem_t value) {
    return std::vector<elem_t>(static_cast<std::size_t>(n), value);
  }

  exec::policy policy;
  std::vector<elem_t> a, b, c;
};

void bm_stream_copy(benchmark::State& state, backends::backend_id id) {
  stream_fixture fx(id, state.range(0));
  for (auto _ : state) {
    PSTLB_WRAP_TIMING(state, "stream/copy",
                      pstlb::copy(fx.policy, fx.a.begin(), fx.a.end(), fx.c.begin()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 2 *
                          static_cast<std::int64_t>(sizeof(elem_t)));
}

void bm_stream_mul(benchmark::State& state, backends::backend_id id) {
  stream_fixture fx(id, state.range(0));
  for (auto _ : state) {
    PSTLB_WRAP_TIMING(state, "stream/mul",
                      pstlb::transform(fx.policy, fx.c.begin(), fx.c.end(),
                                       fx.b.begin(),
                                       [](elem_t x) { return kScalar * x; }));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 2 *
                          static_cast<std::int64_t>(sizeof(elem_t)));
}

void bm_stream_add(benchmark::State& state, backends::backend_id id) {
  stream_fixture fx(id, state.range(0));
  for (auto _ : state) {
    PSTLB_WRAP_TIMING(state, "stream/add",
                      pstlb::transform(fx.policy, fx.a.begin(), fx.a.end(),
                                       fx.b.begin(), fx.c.begin(), std::plus<>{}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 3 *
                          static_cast<std::int64_t>(sizeof(elem_t)));
}

void bm_stream_triad(benchmark::State& state, backends::backend_id id) {
  stream_fixture fx(id, state.range(0));
  for (auto _ : state) {
    PSTLB_WRAP_TIMING(
        state, "stream/triad",
        pstlb::transform(fx.policy, fx.b.begin(), fx.b.end(), fx.c.begin(),
                         fx.a.begin(),
                         [](elem_t x, elem_t y) { return x + kScalar * y; }));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 3 *
                          static_cast<std::int64_t>(sizeof(elem_t)));
}

void bm_stream_dot(benchmark::State& state, backends::backend_id id) {
  stream_fixture fx(id, state.range(0));
  for (auto _ : state) {
    PSTLB_WRAP_TIMING(state, "stream/dot", {
      elem_t dot = pstlb::transform_reduce(fx.policy, fx.a.begin(), fx.a.end(),
                                           fx.b.begin(), elem_t{});
      benchmark::DoNotOptimize(dot);
    });
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 2 *
                          static_cast<std::int64_t>(sizeof(elem_t)));
}

#define PSTLB_STREAM(fn, name)                                             \
  BENCHMARK_CAPTURE(fn, seq, backends::backend_id::seq)                    \
      ->Name(name "/seq")                                                  \
      ->Arg(1 << 20)                                                       \
      ->UseManualTime();                                                   \
  BENCHMARK_CAPTURE(fn, steal, backends::backend_id::steal)                \
      ->Name(name "/steal")                                                \
      ->Arg(1 << 20)                                                       \
      ->UseManualTime();                                                   \
  BENCHMARK_CAPTURE(fn, omp_dyn, backends::backend_id::omp_dynamic)        \
      ->Name(name "/omp_dyn")                                              \
      ->Arg(1 << 20)                                                       \
      ->UseManualTime()

PSTLB_STREAM(bm_stream_copy, "stream/copy");
PSTLB_STREAM(bm_stream_mul, "stream/mul");
PSTLB_STREAM(bm_stream_add, "stream/add");
PSTLB_STREAM(bm_stream_triad, "stream/triad");
PSTLB_STREAM(bm_stream_dot, "stream/dot");

}  // namespace
}  // namespace pstlb::bench

BENCHMARK_MAIN();

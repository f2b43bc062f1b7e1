#include "sched/steal_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace pstlb::sched {
namespace {

loop_context make_count_ctx(index_t n, index_t grain,
                            std::vector<std::atomic<int>>& hits) {
  loop_context ctx;
  ctx.n = n;
  ctx.grain = grain;
  ctx.state = &hits;
  ctx.run = [](void* state, index_t b, index_t e, unsigned) {
    auto& h = *static_cast<std::vector<std::atomic<int>>*>(state);
    for (index_t i = b; i < e; ++i) { h[static_cast<std::size_t>(i)].fetch_add(1); }
  };
  return ctx;
}

class SteamPoolCoverage : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SteamPoolCoverage, EveryIndexExactlyOnce) {
  const auto [n, grain, threads] = GetParam();
  steal_pool& pool = steal_pool::global();
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  const loop_context ctx = make_count_ctx(n, grain, hits);
  pool.run(static_cast<unsigned>(threads), ctx);
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SteamPoolCoverage,
    ::testing::Values(std::tuple{0, 1, 4}, std::tuple{1, 1, 4}, std::tuple{5, 2, 4},
                      std::tuple{1000, 7, 2}, std::tuple{1000, 1000, 4},
                      std::tuple{1000, 2000, 4}, std::tuple{100000, 128, 4},
                      std::tuple{100000, 1, 8}, std::tuple{9973, 64, 3}));

TEST(StealPool, ReusableAcrossLoops) {
  steal_pool& pool = steal_pool::global();
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    loop_context ctx;
    ctx.n = 1000;
    ctx.grain = 16;
    ctx.state = &sum;
    ctx.run = [](void* state, index_t b, index_t e, unsigned) {
      long local = 0;
      for (index_t i = b; i < e; ++i) { local += i; }
      static_cast<std::atomic<long>*>(state)->fetch_add(local);
    };
    pool.run(4, ctx);
    EXPECT_EQ(sum.load(), 999L * 1000 / 2);
  }
}

TEST(StealPool, CancellationSkipsLaterChunks) {
  steal_pool& pool = steal_pool::global();
  std::atomic<index_t> cancel{1 << 20};
  std::atomic<long> executed{0};

  struct state_t {
    std::atomic<index_t>* cancel;
    std::atomic<long>* executed;
  } state{&cancel, &executed};

  loop_context ctx;
  ctx.n = 1 << 20;
  ctx.grain = 256;
  ctx.cancel_before = &cancel;
  ctx.state = &state;
  ctx.run = [](void* raw, index_t b, index_t e, unsigned) {
    auto& s = *static_cast<state_t*>(raw);
    s.executed->fetch_add(e - b);
    if (b <= 1000 && 1000 < e) { fetch_min(*s.cancel, 1000); }
  };
  pool.run(4, ctx);
  // Cancellation is advisory, but most of the space past the hit must be
  // skipped (we scanned far less than everything).
  EXPECT_LT(executed.load(), (1 << 20) / 2);
  EXPECT_LE(cancel.load(), 1000);
}

TEST(StealPool, TidsAreWithinRange) {
  steal_pool& pool = steal_pool::global();
  std::atomic<unsigned> max_tid{0};
  loop_context ctx;
  ctx.n = 10000;
  ctx.grain = 8;
  ctx.state = &max_tid;
  ctx.run = [](void* state, index_t, index_t, unsigned tid) {
    auto& mt = *static_cast<std::atomic<unsigned>*>(state);
    unsigned cur = mt.load();
    while (tid > cur && !mt.compare_exchange_weak(cur, tid)) {}
  };
  pool.run(4, ctx);
  EXPECT_LT(max_tid.load(), 4u);
}

}  // namespace
}  // namespace pstlb::sched

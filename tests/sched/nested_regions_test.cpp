// A parallel call made inside a chunk is an ordinary pool region: it skips
// arena admission (riding the enclosing call's grant), claims the workers
// that are idle or runs on its caller alone, and links its fault channel to
// the enclosing region's, so failures and cancellation cross the nesting in
// both directions without a second scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "backends/backend_registry.hpp"
#include "pstlb/pstlb.hpp"
#include "sched/arena.hpp"
#include "sched/thread_pool.hpp"
#include "support/policies.hpp"

namespace pstlb::sched {
namespace {

using backends::backend;
using backends::backend_id;
using test::make_eager;
using namespace std::chrono_literals;

std::vector<int> iota_vector(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

/// (outer, inner) profiles, named "<inner>_in_<outer>".
class NestedPair
    : public ::testing::TestWithParam<std::tuple<test::profile, test::profile>> {};

TEST_P(NestedPair, DepthThreeComputesExactResults) {
  // for_each on A, inside it transform_reduce on B, inside that
  // transform_reduce on A again: row i sums i * 4096 + j * 256 + k over
  // j < 16, k < 256.
  const auto [a, b] = GetParam();
  const exec::policy outer = make_eager(a, 4, 1);
  const exec::policy middle = make_eager(b, 4, 2);
  const exec::policy inner = make_eager(a, 4, 16);
  const std::vector<int> is = iota_vector(8);
  const std::vector<int> js = iota_vector(16);
  const std::vector<int> ks = iota_vector(256);
  std::vector<long long> rows(is.size(), -1);
  pstlb::for_each(outer, is.begin(), is.end(), [&](int i) {
    rows[static_cast<std::size_t>(i)] = pstlb::transform_reduce(
        middle, js.begin(), js.end(), 0LL, std::plus<>{}, [&](int j) {
          return pstlb::transform_reduce(
              inner, ks.begin(), ks.end(), 0LL, std::plus<>{},
              [&](int k) { return i * 4096LL + j * 256LL + k; });
        });
  });
  for (const int i : is) {
    long long expected = 0;
    for (const int j : js) {
      for (const int k : ks) { expected += i * 4096LL + j * 256LL + k; }
    }
    EXPECT_EQ(rows[static_cast<std::size_t>(i)], expected) << "row " << i;
  }
}

TEST_P(NestedPair, NestedTidsStayBelowTheBackendsThreads) {
  // Every tid a nested body sees is below its own backend's threads(), however
  // many participants the enclosing region holds.
  const auto [a, b] = GetParam();
  const exec::policy outer = make_eager(a, 4, 1);
  const std::vector<int> is = iota_vector(8);
  std::atomic<int> bad{0};
  std::atomic<long long> blocks{0};
  pstlb::for_each(outer, is.begin(), is.end(), [&](int i) {
    const exec::policy inner = make_eager(b, 2 + static_cast<unsigned>(i % 2));
    exec::dispatch(
        inner, 1024, [] {},
        [&](const backend& be, index_t) {
          be.for_blocks(1024, 8, nullptr, [&](index_t, index_t, unsigned tid) {
            if (tid >= be.threads()) { bad.fetch_add(1); }
            blocks.fetch_add(1);
          });
        });
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(blocks.load(), 8 * 128);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, NestedPair,
    ::testing::Combine(::testing::ValuesIn(test::parallel_profiles),
                       ::testing::ValuesIn(test::parallel_profiles)),
    [](const ::testing::TestParamInfo<NestedPair::ParamType>& pair) {
      return test::name_of(std::get<1>(pair.param)) + "_in_" +
             test::name_of(std::get<0>(pair.param));
    });

const std::span<const backend_id> kParallel = backends::parallel_backends();

TEST(NestedRegions, WideCallInANarrowRegionUsesTheIdleWorkers) {
  // The width-2 outer region holds one worker; the 4-wide call nested in it
  // claims idle ones instead of running on its caller alone.
  thread_pool::global().ensure(4);
  const exec::policy outer = make_eager(backend_id::fork_join, 2, 1);
  const exec::policy inner = make_eager(backend_id::fork_join, 4);
  const std::vector<int> is = iota_vector(2);
  std::vector<double> data(1 << 16, 1.0);
  std::mutex mutex;
  std::set<std::thread::id> threads;
  pstlb::for_each(outer, is.begin(), is.end(), [&](int i) {
    if (i != 0) { return; }
    pstlb::for_each(inner, data.begin(), data.end(), [&](double& x) {
      x += 1.0;
      const std::lock_guard lock(mutex);
      threads.insert(std::this_thread::get_id());
    });
  });
  EXPECT_GT(threads.size(), 1u);
  EXPECT_TRUE(std::all_of(data.begin(), data.end(), [](double x) { return x == 2.0; }));
}

TEST(NestedRegions, NestedCallsTakeNoArenaTokens) {
  arena& a = arena::default_arena();
  const arena_snapshot before = a.snapshot();
  const exec::policy outer = make_eager(backend_id::steal, 4, 1);
  const exec::policy inner = make_eager(backend_id::omp_dynamic, 4);
  const std::vector<int> is = iota_vector(8);
  const std::vector<int> ks = iota_vector(512);
  constexpr int top_level_calls = 5;
  std::atomic<long long> total{0};
  for (int call = 0; call < top_level_calls; ++call) {
    pstlb::for_each(outer, is.begin(), is.end(), [&](int) {
      total.fetch_add(pstlb::reduce(inner, ks.begin(), ks.end(), 0LL));
    });
  }
  const arena_snapshot after = a.snapshot();
  EXPECT_EQ(total.load(), top_level_calls * 8 * (511LL * 512 / 2));
  EXPECT_EQ(after.admitted - before.admitted, static_cast<std::uint64_t>(top_level_calls));
  EXPECT_EQ(after.admitted, after.completed);
}

TEST(NestedRegions, DepthTwoThrowReachesTheOutermostCallerOnce) {
  for (const backend_id a : kParallel) {
    for (const backend_id b : kParallel) {
      const exec::policy outer = make_eager(a, 4, 1);
      const exec::policy inner = make_eager(b, 4, 8);
      const std::vector<int> is = iota_vector(8);
      const std::vector<int> ks = iota_vector(1024);
      std::atomic<int> thrown{0};
      int caught = 0;
      try {
        pstlb::for_each(outer, is.begin(), is.end(), [&](int i) {
          pstlb::for_each(inner, ks.begin(), ks.end(), [&](int k) {
            if (i % 2 == 1 && k == 517) {
              thrown.fetch_add(1);
              throw std::runtime_error("depth two");
            }
          });
        });
      } catch (const std::runtime_error& e) {
        ++caught;
        EXPECT_STREQ(e.what(), "depth two");
      }
      EXPECT_EQ(caught, 1) << backends::name_of(a) << " / " << backends::name_of(b);
      EXPECT_GE(thrown.load(), 1);
      EXPECT_LE(thrown.load(), 4);
      // Nothing is left stuck: the same pair runs cleanly afterwards.
      std::atomic<long long> sum{0};
      pstlb::for_each(outer, is.begin(), is.end(), [&](int) {
        sum.fetch_add(pstlb::reduce(inner, ks.begin(), ks.end(), 0LL));
      });
      EXPECT_EQ(sum.load(), 8 * (1023LL * 1024 / 2));
    }
  }
}

TEST(NestedRegions, NestedThrowCaughtInTheChunkLetsTheOuterCallFinish) {
  for (const backend_id a : kParallel) {
    const exec::policy outer = make_eager(a, 4, 1);
    const exec::policy inner = make_eager(backend_id::steal, 4, 8);
    const std::vector<int> is = iota_vector(8);
    const std::vector<int> ks = iota_vector(1024);
    std::atomic<int> caught{0};
    std::vector<int> done(is.size(), 0);
    pstlb::for_each(outer, is.begin(), is.end(), [&](int i) {
      try {
        pstlb::for_each(inner, ks.begin(), ks.end(), [](int k) {
          if (k == 300) { throw std::logic_error("inner"); }
        });
      } catch (const std::logic_error&) {
        caught.fetch_add(1);
      }
      done[static_cast<std::size_t>(i)] = 1;
    });
    EXPECT_EQ(caught.load(), 8) << backends::name_of(a);
    EXPECT_EQ(std::count(done.begin(), done.end(), 1), 8) << backends::name_of(a);
  }
}

TEST(NestedRegions, ThrowInAnotherOuterChunkEndsTheNestedLoopEarly) {
  // Outer chunk 0 runs a nested loop of 4000 chunks of 200 us; outer chunk 1
  // throws once the nested loop is under way. The enclosing failure cancels
  // the nested loop through its parent link, so it stops long before its
  // last chunk.
  for (const backend_id b : kParallel) {
    const exec::policy outer = make_eager(backend_id::fork_join, 2, 1);
    const exec::policy inner = make_eager(b, 4, 1);
    const std::vector<int> is = iota_vector(2);
    const std::vector<int> ks = iota_vector(4000);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pstlb::for_each(outer, is.begin(), is.end(),
                        [&](int i) {
                          if (i == 1) {
                            const auto deadline = std::chrono::steady_clock::now() + 5s;
                            while (ran.load() < 8 &&
                                   std::chrono::steady_clock::now() < deadline) {
                              std::this_thread::yield();
                            }
                            throw std::runtime_error("outer");
                          }
                          pstlb::for_each(inner, ks.begin(), ks.end(), [&](int) {
                            ran.fetch_add(1);
                            std::this_thread::sleep_for(200us);
                          });
                        }),
        std::runtime_error)
        << backends::name_of(b);
    EXPECT_GE(ran.load(), 8) << backends::name_of(b);
    EXPECT_LT(ran.load(), 4000) << backends::name_of(b);
  }
}

}  // namespace
}  // namespace pstlb::sched

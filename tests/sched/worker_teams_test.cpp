// Every parallel backend runs on the one thread_pool, whose concurrent
// regions claim disjoint worker teams: a region never waits for another to
// finish, it runs on the workers that are idle (or on its caller alone), and
// the whole process runs chunks on at most the pool's workers plus callers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "backends/backend.hpp"
#include "backends/backend_registry.hpp"
#include "sched/steal_pool.hpp"
#include "sched/thread_pool.hpp"

namespace pstlb::sched {
namespace {

using backends::backend;
using backends::backend_id;
using namespace std::chrono_literals;

constexpr backend_id kParallel[] = {backend_id::fork_join, backend_id::omp_dynamic,
                                    backend_id::steal, backend_id::task_futures};

/// A `width`-wide loop of `width` chunks on `id`, run from a background
/// thread, whose chunk 0 stays open until release() or a 2 s timeout.
/// Construction returns once chunk 0 is open, so the region's team is
/// claimed by then.
class held_region {
 public:
  held_region(backend_id id, unsigned width)
      : thread_([this, id, width] {
          backend(id, width).for_blocks(width, 1, nullptr, [this](index_t b, index_t, unsigned) {
            if (b != 0) { return; }
            holding_.store(true);
            const auto deadline = std::chrono::steady_clock::now() + 2s;
            while (!released_.load()) {
              if (std::chrono::steady_clock::now() > deadline) {
                timed_out_.store(true);
                return;
              }
              std::this_thread::sleep_for(100us);
            }
          });
        }) {
    while (!holding_.load()) { std::this_thread::yield(); }
  }
  ~held_region() {
    release();
    thread_.join();
  }
  held_region(const held_region&) = delete;
  held_region& operator=(const held_region&) = delete;

  /// Lets chunk 0 finish. True when it was still open, i.e. nothing the
  /// test ran meanwhile had to wait for the timeout.
  bool release() {
    released_.store(true);
    return !timed_out_.load();
  }

 private:
  std::atomic<bool> holding_{false};
  std::atomic<bool> released_{false};
  std::atomic<bool> timed_out_{false};
  std::thread thread_;  // last: uses the flags above
};

/// Holds `count` idle workers of the global pool in a raw region until
/// destroyed.
class held_workers {
 public:
  explicit held_workers(unsigned count)
      : thread_([this, count] {
          thread_pool::global().run(count + 1, [this](unsigned, unsigned) {
            arrived_.fetch_add(1);
            while (!released_.load()) { std::this_thread::sleep_for(100us); }
          });
        }) {
    while (arrived_.load() < count + 1) { std::this_thread::yield(); }
  }
  ~held_workers() {
    released_.store(true);
    thread_.join();
  }
  held_workers(const held_workers&) = delete;
  held_workers& operator=(const held_workers&) = delete;

 private:
  std::atomic<unsigned> arrived_{0};
  std::atomic<bool> released_{false};
  std::thread thread_;  // last: uses the counters above
};

class RegionPair
    : public ::testing::TestWithParam<std::tuple<backend_id, backend_id>> {};

TEST_P(RegionPair, SecondRegionFinishesWhileFirstHoldsAChunk) {
  const auto [a, b] = GetParam();
  held_region first(a, 2);
  std::atomic<int> chunks{0};
  backend(b, 2).for_blocks(64, 1, nullptr,
                           [&](index_t, index_t, unsigned) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 64);
  EXPECT_TRUE(first.release()) << "the second region waited for the first";
}

TEST_P(RegionPair, RegionRunsOnItsCallerWhenEveryWorkerIsHeld) {
  const auto [a, b] = GetParam();
  held_region first(a, thread_pool::global().worker_count() + 1);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> chunks{0};
  std::atomic<int> elsewhere{0};
  std::atomic<int> wide_tids{0};
  backend(b, 2).for_blocks(64, 1, nullptr, [&](index_t, index_t, unsigned tid) {
    chunks.fetch_add(1);
    if (std::this_thread::get_id() != caller) { elsewhere.fetch_add(1); }
    if (tid >= 2) { wide_tids.fetch_add(1); }
  });
  EXPECT_EQ(chunks.load(), 64);
  EXPECT_EQ(elsewhere.load(), 0) << "chunks ran on a worker the first region holds";
  EXPECT_EQ(wide_tids.load(), 0);
  EXPECT_TRUE(first.release()) << "the second region waited for the first";
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, RegionPair,
    ::testing::Combine(::testing::ValuesIn(kParallel), ::testing::ValuesIn(kParallel)),
    [](const ::testing::TestParamInfo<RegionPair::ParamType>& pair) {
      return std::string(backends::name_of(std::get<0>(pair.param))) + "_then_" +
             std::string(backends::name_of(std::get<1>(pair.param)));
    });

TEST(WorkerTeams, StealRunOnASmallerTeamCoversEveryChunkOnce) {
  // The run allocates a deque for each of its 4 possible participants
  // before it knows how many workers it will claim: every chunk must still
  // run once, and only on the team it claimed.
  thread_pool::global().ensure(4);
  const unsigned workers = thread_pool::global().worker_count();
  constexpr index_t n = 4096;
  for (unsigned free = 0; free < 3; ++free) {
    held_workers held(workers - free);
    std::vector<std::atomic<int>> hits(n);
    std::atomic<unsigned> top_tid{0};
    struct state_t {
      std::vector<std::atomic<int>>* hits;
      std::atomic<unsigned>* top_tid;
    } state{&hits, &top_tid};
    loop_context ctx;
    ctx.n = n;
    ctx.grain = 16;
    ctx.state = &state;
    ctx.run = [](void* raw, index_t b, index_t e, unsigned tid) {
      auto& s = *static_cast<state_t*>(raw);
      for (index_t i = b; i < e; ++i) { (*s.hits)[static_cast<std::size_t>(i)].fetch_add(1); }
      unsigned top = s.top_tid->load();
      while (tid > top && !s.top_tid->compare_exchange_weak(top, tid)) {}
    };
    steal_pool::global().run(4, ctx);
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " with " << free << " free workers";
    }
    EXPECT_LE(top_tid.load(), free) << "a tid beyond the claimed team";
  }
}

TEST(WorkerTeams, BackendsShareOneWorkerSet) {
  thread_pool& pool = thread_pool::global();
  const unsigned width = pool.worker_count() + 1;
  std::mutex mutex;
  std::set<std::thread::id> threads;
  for (const backend_id id : kParallel) {
    backend(id, width).for_blocks(256, 1, nullptr, [&](index_t, index_t, unsigned) {
      {
        std::lock_guard lock(mutex);
        threads.insert(std::this_thread::get_id());
      }
      std::this_thread::sleep_for(200us);
    });
  }
  EXPECT_LE(threads.size(), pool.worker_count() + 1);
}

}  // namespace
}  // namespace pstlb::sched

#include "sched/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

namespace pstlb::sched {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
  thread_pool pool(0);
  const auto caller = std::this_thread::get_id();
  bool ran = false;
  pool.run(1, [&](unsigned tid, unsigned nthreads) {
    EXPECT_EQ(tid, 0u);
    EXPECT_EQ(nthreads, 1u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, AllTidsParticipateExactlyOnce) {
  thread_pool pool(3);
  std::vector<std::atomic<int>> hits(4);
  pool.run(4, [&](unsigned tid, unsigned nthreads) {
    EXPECT_EQ(nthreads, 4u);
    ASSERT_LT(tid, 4u);
    hits[tid].fetch_add(1);
  });
  for (const auto& h : hits) { EXPECT_EQ(h.load(), 1); }
}

TEST(ThreadPool, GrowsOnDemand) {
  thread_pool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::atomic<int> count{0};
  pool.run(6, [&](unsigned, unsigned) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 6);
  EXPECT_GE(pool.worker_count(), 5u);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  thread_pool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.run(4, [&](unsigned tid, unsigned) { total.fetch_add(tid); });
  }
  EXPECT_EQ(total.load(), 200 * (0 + 1 + 2 + 3));
}

TEST(ThreadPool, VariableParticipantCounts) {
  thread_pool pool(7);
  for (unsigned t : {1u, 2u, 3u, 5u, 8u, 2u, 8u, 1u}) {
    std::atomic<unsigned> count{0};
    pool.run(t, [&](unsigned, unsigned nthreads) {
      EXPECT_EQ(nthreads, t);
      count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), t);
  }
}

TEST(ThreadPool, ConcurrentCallersRunDisjointTeams) {
  // Four callers share three workers: each region gets whatever is idle and
  // must still run every tid below its own nthreads exactly once.
  thread_pool pool(3);
  std::atomic<int> bad_regions{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        std::vector<std::atomic<int>> hits(4);
        std::atomic<unsigned> team{0};
        pool.run(4, [&](unsigned tid, unsigned nthreads) {
          team.store(nthreads);
          if (tid < hits.size()) { hits[tid].fetch_add(1); }
        });
        const unsigned n = team.load();
        bool ok = n >= 1 && n <= 4;
        for (unsigned t = 0; t < hits.size(); ++t) {
          ok = ok && hits[t].load() == (t < n ? 1 : 0);
        }
        if (!ok) { bad_regions.fetch_add(1); }
      }
    });
  }
  for (auto& caller : callers) { caller.join(); }
  EXPECT_EQ(bad_regions.load(), 0);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&thread_pool::global(), &thread_pool::global());
}

}  // namespace
}  // namespace pstlb::sched

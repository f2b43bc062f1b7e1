// Stress and integration tests: concurrent use of the global pools from
// multiple user threads, long repeated-dispatch sequences (pool reuse),
// composition chains across backends, and the first-touch allocator under
// the full algorithm mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "backends/backend_registry.hpp"
#include "bench_core/generators.hpp"
#include "numa/first_touch_allocator.hpp"
#include "pstlb/pstlb.hpp"
#include "support/policies.hpp"

namespace {

using pstlb::index_t;

TEST(Stress, ConcurrentCallersOnAllBackends) {
  // Four user threads each hammer the global pools with mixed algorithms.
  std::atomic<int> failures{0};
  std::vector<std::thread> users;
  for (int u = 0; u < 4; ++u) {
    users.emplace_back([u, &failures] {
      std::vector<long long> v(20000);
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = static_cast<long long>((i * 31 + static_cast<std::size_t>(u)) % 1000);
      }
      const long long expected_sum = std::accumulate(v.begin(), v.end(), 0LL);
      for (int round = 0; round < 25; ++round) {
        auto run_round = [&](auto policy) {
          if (pstlb::reduce(policy, v.begin(), v.end(), 0LL) != expected_sum) {
            failures.fetch_add(1);
          }
          auto copy = v;
          pstlb::sort(policy, copy.begin(), copy.end());
          if (!std::is_sorted(copy.begin(), copy.end())) { failures.fetch_add(1); }
        };
        run_round(pstlb::test::make_eager(pstlb::backends::backend_id::steal));
        run_round(pstlb::test::make_eager(pstlb::backends::backend_id::fork_join));
        run_round(pstlb::test::make_eager(pstlb::backends::backend_id::task_futures));
        run_round(pstlb::test::make_eager(pstlb::backends::backend_id::omp_dynamic));
      }
    });
  }
  for (auto& user : users) { user.join(); }
  EXPECT_EQ(failures.load(), 0);
}

TEST(Stress, ManySmallDispatchesReusePools) {
  // 2000 tiny parallel loops: pool threads must be reused, not recreated
  // (CP.41); wrong lifetime management would deadlock or leak visibly here.
  auto pol = pstlb::test::make_eager(pstlb::backends::backend_id::steal, 4, 8);
  std::vector<int> v(64);
  long long total = 0;
  for (int round = 0; round < 2000; ++round) {
    std::iota(v.begin(), v.end(), round);
    total += pstlb::reduce(pol, v.begin(), v.end(), 0);
  }
  long long expected = 0;
  for (int round = 0; round < 2000; ++round) {
    expected += 64LL * round + 63 * 64 / 2;
  }
  EXPECT_EQ(total, expected);
}

TEST(Stress, CompositionChainAcrossBackends) {
  // A pipeline where each stage uses a different backend must still be
  // correct: the pools are independent and results flow through memory.
  const index_t n = 50000;
  pstlb::exec::steal_policy steal{4};
  pstlb::exec::task_policy futures{4};
  pstlb::exec::fork_join_policy fork{4};
  steal.seq_threshold = futures.seq_threshold = fork.seq_threshold = 0;

  std::vector<double> v(static_cast<std::size_t>(n));
  pstlb::generate(steal, v.begin(), v.end(), [] { return 1.0; });
  std::vector<double> scanned(v.size());
  pstlb::inclusive_scan(futures, v.begin(), v.end(), scanned.begin());
  pstlb::for_each(fork, scanned.begin(), scanned.end(), [](double& x) { x *= 2; });
  const double sum = pstlb::reduce(steal, scanned.begin(), scanned.end());
  // sum of 2*(1..n) = n(n+1)
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(n) * (n + 1));
}

TEST(Stress, FirstTouchAllocatorUnderAlgorithmMix) {
  pstlb::exec::omp_dynamic_policy pol{4};
  pol.seq_threshold = 0;
  auto v = pstlb::bench::generate_increment(pol, 100000);
  pstlb::reverse(pol, v.begin(), v.end());
  EXPECT_EQ(v.front(), 100000.0);
  pstlb::sort(pol, v.begin(), v.end());
  EXPECT_TRUE(pstlb::is_sorted(pol, v.begin(), v.end()));
  const auto mid = pstlb::find(pol, v.begin(), v.end(), 50000.0);
  ASSERT_NE(mid, v.end());
  EXPECT_EQ(mid - v.begin(), 49999);
}

TEST(Stress, AlternatingThreadCounts) {
  // Policies with varying thread counts against the same pools.
  std::vector<long long> v(30000);
  std::iota(v.begin(), v.end(), 0);
  const long long expected = 29999LL * 30000 / 2;
  for (unsigned t : {1u, 2u, 7u, 3u, 8u, 1u, 5u}) {
    pstlb::exec::steal_policy pol{t};
    pol.seq_threshold = 0;
    EXPECT_EQ(pstlb::reduce(pol, v.begin(), v.end(), 0LL), expected) << t;
    pstlb::exec::task_policy fut{t};
    fut.seq_threshold = 0;
    EXPECT_EQ(pstlb::count_if(fut, v.begin(), v.end(),
                              [](long long x) { return x % 2 == 0; }),
              15000)
        << t;
  }
}

TEST(Stress, LargeSortAllBackends) {
  const index_t n = 1 << 19;
  for (pstlb::backends::backend_id id : pstlb::backends::parallel_backends()) {
    const pstlb::exec::policy policy = pstlb::test::make_eager(id);
    auto v = pstlb::bench::shuffled_permutation(n, 99);
    pstlb::sort(policy, v.begin(), v.end());
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end())) << pstlb::backends::name_of(id);
    EXPECT_EQ(v.front(), 1.0);
    EXPECT_EQ(v.back(), static_cast<double>(n));
  }
}

}  // namespace

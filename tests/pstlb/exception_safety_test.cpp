// Exception-propagation contract of the fault-tolerance layer: a throwing
// user functor on any backend delivers exactly one exception to the caller
// (TBB task_group_context semantics), never deadlocks, never terminates, and
// leaves containers valid-but-unspecified and the pools reusable.
//
// The scan cases run the single-pass decoupled-lookback skeleton over a
// couple of hundred chunks, so exceptions land mid-lookback and the
// poisoned-descriptor protocol is what keeps the spinning peers alive. The
// sort case throws from the comparator in every samplesort and mergesort
// phase. This whole file runs under TSan and ASan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "pstlb/pstlb.hpp"
#include "support/policies.hpp"

namespace {

using pstlb::index_t;

struct user_error : std::runtime_error {
  user_error() : std::runtime_error("user functor failure") {}
};

/// Deterministic "random" chunk positions: different trial -> different
/// throwing element, covering first/middle/last chunks across trials.
index_t throw_position(index_t n, int trial) {
  const std::uint64_t h =
      (static_cast<std::uint64_t>(trial) + 1) * 0x9E3779B97F4A7C15ull;
  return static_cast<index_t>(h % static_cast<std::uint64_t>(n));
}

PSTLB_POLICY_TEST(ExceptionSafety, ForEachDeliversExactlyOneException) {
  auto policy = this->pol;
  std::vector<long long> v(20000, 1);
  for (int trial = 0; trial < 8; ++trial) {
    const index_t bad = throw_position(static_cast<index_t>(v.size()), trial);
    int caught = 0;
    try {
      pstlb::for_each(policy, v.begin(), v.end(), [&](long long& x) {
        if (&x - v.data() == bad) { throw user_error(); }
        x += 1;
      });
    } catch (const user_error&) {
      ++caught;
    }
    // Exactly one exception per launch, and it is the user's type.
    EXPECT_EQ(caught, 1) << "trial " << trial;
    // Valid-but-unspecified: the container is still fully readable.
    EXPECT_EQ(v.size(), 20000u);
  }
  // The pool survived every failed region and still runs clean work.
  std::vector<long long> w(4096, 2);
  EXPECT_EQ(pstlb::reduce(policy, w.begin(), w.end(), 0LL), 8192);
}

PSTLB_POLICY_TEST(ExceptionSafety, EveryChunkThrowingStillDeliversOne) {
  // All chunks throw concurrently: the single-winner capture must drop all
  // but one, and the barrier must still be met on every backend.
  auto policy = this->pol;
  std::vector<int> v(8192, 0);
  int caught = 0;
  try {
    pstlb::for_each(policy, v.begin(), v.end(),
                    [](int&) { throw user_error(); });
  } catch (const user_error&) {
    ++caught;
  }
  EXPECT_EQ(caught, 1);
}

PSTLB_POLICY_TEST(ExceptionSafety, ReduceOperatorThrowPropagates) {
  auto policy = this->pol;
  std::vector<long long> v(16384, 1);
  EXPECT_THROW(
      (void)pstlb::reduce(policy, v.begin(), v.end(), 0LL,
                          [](long long a, long long b) -> long long {
                            if (a + b > 700) { throw user_error(); }
                            return a + b;
                          }),
      user_error);
  EXPECT_EQ(pstlb::reduce(policy, v.begin(), v.end(), 0LL), 16384);
}

PSTLB_POLICY_TEST(ExceptionSafety, TransformThrowLeavesOutputValid) {
  auto policy = this->pol;
  std::vector<int> in(20000);
  std::iota(in.begin(), in.end(), 0);
  std::vector<int> out(in.size(), -1);
  for (int trial = 0; trial < 4; ++trial) {
    const index_t bad = throw_position(static_cast<index_t>(in.size()), trial);
    EXPECT_THROW(pstlb::transform(policy, in.begin(), in.end(), out.begin(),
                                  [&](const int& x) -> int {
                                    if (&x - in.data() == bad) {
                                      throw user_error();
                                    }
                                    return x * 2;
                                  }),
                 user_error);
    EXPECT_EQ(out.size(), in.size());  // valid, contents unspecified
  }
}

PSTLB_POLICY_TEST(ExceptionSafety, ScanCombineThrowMidLookback) {
  // Deep lookback chains (2^19 / 2048-element chunks = 256 descriptors at 4
  // threads); an element-level throw then lands while peers are actively
  // spinning on predecessor descriptors. The poisoned-descriptor protocol
  // must unblock every one of them or this test hangs.
  auto policy = this->pol;
  const index_t n = index_t{1} << 19;
  std::vector<long long> in(static_cast<std::size_t>(n), 1);
  std::vector<long long> out(in.size(), 0);
  for (int trial = 0; trial < 4; ++trial) {
    const index_t bad = throw_position(n, trial);
    int caught = 0;
    try {
      pstlb::inclusive_scan(policy, in.begin(), in.end(), out.begin(),
                            [&](long long a, long long b) -> long long {
                              if (a + b == bad + 1) { throw user_error(); }
                              return a + b;
                            });
    } catch (const user_error&) {
      ++caught;
    }
    if (bad == 0) { continue; }  // prefix `bad + 1` may never be formed
    EXPECT_EQ(caught, 1) << "trial " << trial;
  }
  // Scan still produces correct output after the failed launches.
  pstlb::inclusive_scan(policy, in.begin(), in.end(), out.begin());
  EXPECT_EQ(out.back(), static_cast<long long>(n));
}

PSTLB_POLICY_TEST(ExceptionSafety, SortComparatorThrowOnItsKthCall) {
  // The comparator throws on its k-th call. A clean run counts the calls;
  // the k values then spread over them. On 2^17 elements (samplesort) the
  // first calls sort the splitter sample on the caller, the next ones
  // classify every key in the top-level chunks, and the rest run in the
  // bucket kernels and their insertion-sort leaves, all inside pool
  // regions; 2^12 elements take the mergesort's block sorts and merge
  // rounds. Each throw must reach the caller as exactly one exception,
  // without a hang, and a clean retry must sort.
  auto policy = this->pol;
  for (const index_t n : {index_t{1} << 17, index_t{1} << 12}) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(n));
    std::vector<double> input(static_cast<std::size_t>(n));
    for (auto& x : input) { x = static_cast<double>(rng() >> 11); }
    std::atomic<std::uint64_t> calls{0};
    std::uint64_t throw_at = 0;  // 0: never
    auto comp = [&](double a, double b) {
      const std::uint64_t c = calls.fetch_add(1, std::memory_order_relaxed) + 1;
      if (c == throw_at) { throw user_error(); }
      return a < b;
    };
    std::vector<double> v = input;
    pstlb::sort(policy, v.begin(), v.end(), comp);
    ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
    const std::uint64_t total = calls.load();
    for (const double at : {0.0, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
      v = input;
      calls = 0;
      throw_at = 1 + static_cast<std::uint64_t>(at * static_cast<double>(total - 1));
      int caught = 0;
      try {
        pstlb::sort(policy, v.begin(), v.end(), comp);
      } catch (const user_error&) {
        ++caught;
      }
      EXPECT_EQ(caught, 1) << "n=" << n << " throw at call " << throw_at << " of "
                           << total;
      EXPECT_EQ(v.size(), input.size());
    }
    throw_at = 0;
    v = input;
    pstlb::sort(policy, v.begin(), v.end(), comp);
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end())) << "n=" << n;
  }
}

PSTLB_POLICY_TEST(ExceptionSafety, RepeatedFailuresDoNotExhaustPools) {
  // 50 consecutive failed regions: leaked job state, stuck epochs, or
  // un-reset cancel tokens would wedge one of these launches.
  auto policy = this->pol;
  std::vector<int> v(4096, 1);
  for (int round = 0; round < 50; ++round) {
    EXPECT_THROW(pstlb::for_each(policy, v.begin(), v.end(),
                                 [](int&) { throw user_error(); }),
                 user_error);
  }
  EXPECT_EQ(pstlb::reduce(policy, v.begin(), v.end(), 0), 4096);
}

}  // namespace

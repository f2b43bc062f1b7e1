// Sort-family algorithms: permutation+order properties, stability, merges,
// partitions, order statistics — all policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <numeric>
#include <vector>

#include "pstlb/detail/sort_stats.hpp"
#include "pstlb/pstlb.hpp"
#include "sched/arena.hpp"
#include "support/policies.hpp"

namespace {

using pstlb::index_t;

std::vector<int> make_shuffled(index_t n, unsigned seed = 1) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
  for (index_t i = n - 1; i > 0; --i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const auto j = static_cast<index_t>((state >> 33) % static_cast<std::uint64_t>(i + 1));
    std::swap(v[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(j)]);
  }
  return v;
}

PSTLB_POLICY_TEST(SortAlgos, SortsPermutation) {
  for (index_t n : pstlb::test::test_sizes()) {
    auto v = make_shuffled(n);
    pstlb::sort(this->pol, v.begin(), v.end());
    ASSERT_TRUE(std::is_sorted(v.begin(), v.end())) << "n=" << n;
    // Still the same permutation of 0..n-1.
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(v[static_cast<std::size_t>(i)], static_cast<int>(i)) << "n=" << n;
    }
  }
}

PSTLB_POLICY_TEST(SortAlgos, SortWithComparator) {
  auto v = make_shuffled(100000);
  pstlb::sort(this->pol, v.begin(), v.end(), std::greater<>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<>{}));
}

PSTLB_POLICY_TEST(SortAlgos, SortWithDuplicates) {
  std::vector<int> v(131071);
  for (std::size_t i = 0; i < v.size(); ++i) { v[i] = static_cast<int>(i % 37); }
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  pstlb::sort(this->pol, v.begin(), v.end());
  EXPECT_EQ(v, expected);
}

PSTLB_POLICY_TEST(SortAlgos, StableSortPreservesEqualOrder) {
  struct item {
    int key;
    int seq;
  };
  std::vector<item> v;
  const auto keys = make_shuffled(60000);
  v.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    v.push_back({keys[i] % 100, static_cast<int>(i)});
  }
  pstlb::stable_sort(this->pol, v.begin(), v.end(),
                     [](const item& a, const item& b) { return a.key < b.key; });
  for (std::size_t i = 1; i < v.size(); ++i) {
    ASSERT_LE(v[i - 1].key, v[i].key);
    if (v[i - 1].key == v[i].key) { ASSERT_LT(v[i - 1].seq, v[i].seq) << i; }
  }
}

PSTLB_POLICY_TEST(SortAlgos, MergeTwoSortedRanges) {
  for (index_t na : {index_t{0}, index_t{1}, index_t{999}, index_t{50000}}) {
    for (index_t nb : {index_t{0}, index_t{1}, index_t{30000}}) {
      std::vector<int> a(static_cast<std::size_t>(na)), b(static_cast<std::size_t>(nb));
      for (index_t i = 0; i < na; ++i) { a[static_cast<std::size_t>(i)] = static_cast<int>(i * 3); }
      for (index_t i = 0; i < nb; ++i) { b[static_cast<std::size_t>(i)] = static_cast<int>(i * 5 + 1); }
      std::vector<int> out(a.size() + b.size()), expected(a.size() + b.size());
      std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
      auto ret = pstlb::merge(this->pol, a.begin(), a.end(), b.begin(), b.end(),
                              out.begin());
      ASSERT_EQ(ret, out.end()) << na << "," << nb;
      ASSERT_EQ(out, expected) << na << "," << nb;
    }
  }
}

PSTLB_POLICY_TEST(SortAlgos, MergeIsStable) {
  // Equal keys: all of A's must precede B's.
  std::vector<std::pair<int, int>> a, b;
  for (int i = 0; i < 20000; ++i) { a.push_back({i / 4, 0}); }
  for (int i = 0; i < 20000; ++i) { b.push_back({i / 4, 1}); }
  std::vector<std::pair<int, int>> out(a.size() + b.size());
  auto key_less = [](const auto& x, const auto& y) { return x.first < y.first; };
  pstlb::merge(this->pol, a.begin(), a.end(), b.begin(), b.end(), out.begin(), key_less);
  for (std::size_t i = 1; i < out.size(); ++i) {
    ASSERT_LE(out[i - 1].first, out[i].first);
    if (out[i - 1].first == out[i].first) {
      ASSERT_LE(out[i - 1].second, out[i].second) << i;
    }
  }
}

PSTLB_POLICY_TEST(SortAlgos, InplaceMerge) {
  auto v = make_shuffled(80000);
  const auto middle = v.begin() + 35000;
  std::sort(v.begin(), middle);
  std::sort(middle, v.end());
  auto expected = v;
  std::inplace_merge(expected.begin(), expected.begin() + 35000, expected.end());
  pstlb::inplace_merge(this->pol, v.begin(), middle, v.end());
  EXPECT_EQ(v, expected);
}

PSTLB_POLICY_TEST(SortAlgos, StablePartitionKeepsRelativeOrder) {
  // The false side is filled from the back of the buffer and read back in
  // reverse: 2049 is the smallest two-chunk input, and all-true/all-false
  // put every element on one side.
  const std::function<bool(int)> preds[] = {
      [](int x) { return x % 3 == 0; },
      [](int) { return true; },
      [](int) { return false; },
  };
  for (index_t n : {index_t{2049}, index_t{70000}}) {
    for (std::size_t p = 0; p < std::size(preds); ++p) {
      auto v = make_shuffled(n);
      auto expected = v;
      auto e = std::stable_partition(expected.begin(), expected.end(), preds[p]);
      auto o = pstlb::stable_partition(this->pol, v.begin(), v.end(), preds[p]);
      ASSERT_EQ(o - v.begin(), e - expected.begin()) << "n=" << n << " pred=" << p;
      EXPECT_EQ(v, expected) << "n=" << n << " pred=" << p;
    }
  }
}

PSTLB_POLICY_TEST(SortAlgos, PartitionSatisfiesPostcondition) {
  auto v = make_shuffled(50000);
  auto pred = [](int x) { return x < 10000; };
  auto boundary = pstlb::partition(this->pol, v.begin(), v.end(), pred);
  EXPECT_TRUE(std::all_of(v.begin(), boundary, pred));
  EXPECT_TRUE(std::none_of(boundary, v.end(), pred));
  EXPECT_EQ(boundary - v.begin(), 10000);
}

PSTLB_POLICY_TEST(SortAlgos, NthElement) {
  auto v = make_shuffled(60000);
  const auto nth = v.begin() + 12345;
  pstlb::nth_element(this->pol, v.begin(), nth, v.end());
  EXPECT_EQ(*nth, 12345);
  EXPECT_TRUE(std::all_of(v.begin(), nth, [&](int x) { return x <= *nth; }));
  EXPECT_TRUE(std::all_of(nth, v.end(), [&](int x) { return x >= *nth; }));
}

PSTLB_POLICY_TEST(SortAlgos, PartialSort) {
  auto v = make_shuffled(60000);
  pstlb::partial_sort(this->pol, v.begin(), v.begin() + 500, v.end());
  for (int i = 0; i < 500; ++i) { ASSERT_EQ(v[static_cast<std::size_t>(i)], i); }
}

PSTLB_POLICY_TEST(SortAlgos, PartialSortCopy) {
  const auto v = make_shuffled(60000);
  std::vector<int> out(100, -1);
  auto end = pstlb::partial_sort_copy(this->pol, v.begin(), v.end(), out.begin(),
                                      out.end());
  EXPECT_EQ(end, out.end());
  for (int i = 0; i < 100; ++i) { ASSERT_EQ(out[static_cast<std::size_t>(i)], i); }
  // Destination bigger than source: sorts everything.
  std::vector<int> big(70000, -1);
  auto end2 =
      pstlb::partial_sort_copy(this->pol, v.begin(), v.end(), big.begin(), big.end());
  EXPECT_EQ(end2 - big.begin(), 60000);
  EXPECT_TRUE(std::is_sorted(big.begin(), end2));
}

PSTLB_POLICY_TEST(SortAlgos, CutoffSortsSequentiallyBeforeAdmission) {
  // At sort_seq_cutoff elements sort and stable_sort run std::sort /
  // std::stable_sort on the caller even on an eager policy (seq_threshold
  // 0), so no parallel pipeline touches the traffic snapshot; one element
  // more runs the mergesort.
  constexpr index_t cutoff = pstlb::detail::sort_seq_cutoff;
  static_assert(cutoff < pstlb::detail::sample_sort_min);
  auto by_key = [](int a, int b) { return a / 4 < b / 4; };
  for (bool stable : {false, true}) {
    for (index_t n : {cutoff, cutoff + 1}) {
      pstlb::detail::begin_sort_traffic("untouched", 0, 1);
      auto v = make_shuffled(n, 3);
      if (stable) {
        pstlb::stable_sort(this->pol, v.begin(), v.end(), by_key);
        ASSERT_TRUE(std::is_sorted(v.begin(), v.end(), by_key));
      } else {
        pstlb::sort(this->pol, v.begin(), v.end());
        ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
      }
      EXPECT_STREQ(pstlb::detail::last_sort_traffic().algorithm,
                   n == cutoff ? "untouched" : "merge")
          << "n=" << n << " stable=" << stable;
    }
  }
}

TEST(PartialSortCopyAdmission, SmallKSkipsAdmission) {
  // A k of at most n / partial_sort_copy_seq_ratio runs
  // std::partial_sort_copy on its caller at any width, so it takes no ledger
  // grant; one output slot more sorts a copy of the input under one grant.
  // A fixed 4-wide steal policy is execution::par's backend on any host.
  const pstlb::exec::policy par = pstlb::exec::steal_policy{4};
  auto& arena = pstlb::sched::arena::default_arena();
  constexpr index_t n = index_t{1} << 16;
  constexpr index_t small_k = n / pstlb::detail::partial_sort_copy_seq_ratio;
  const auto v = make_shuffled(n, 5);
  for (index_t k : {small_k, small_k + 1}) {
    const std::uint64_t grants = k > small_k ? 1 : 0;
    std::vector<int> out(static_cast<std::size_t>(k), -1);
    std::vector<int> expected(out.size());
    std::partial_sort_copy(v.begin(), v.end(), expected.begin(), expected.end());
    const std::uint64_t before = arena.snapshot().admitted;
    const auto end =
        pstlb::partial_sort_copy(par, v.begin(), v.end(), out.begin(), out.end());
    EXPECT_EQ(arena.snapshot().admitted, before + grants) << "k=" << k;
    EXPECT_EQ(end, out.end()) << "k=" << k;
    EXPECT_EQ(out, expected) << "k=" << k;
  }
}

TEST(SortSeqThreshold, SmallInputsTakeSequentialPath) {
  // The GNU-like policy keeps its 2^10 fallback: results must still be right.
  pstlb::exec::fork_join_policy pol{4};  // default seq_threshold = 1024
  auto v = make_shuffled(1000);
  pstlb::sort(pol, v.begin(), v.end());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

}  // namespace

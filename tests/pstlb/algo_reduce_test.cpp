// Reduce/search-family algorithms vs std::, all policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "pstlb/pstlb.hpp"
#include "support/policies.hpp"

namespace {

using pstlb::index_t;

std::vector<long long> make_ints(index_t n) {
  std::vector<long long> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = (i * 2654435761LL + 17) % 10007;
  }
  return v;
}

PSTLB_POLICY_TEST(ReduceAlgos, ReduceMatchesStd) {
  for (index_t n : pstlb::test::test_sizes()) {
    const auto v = make_ints(n);
    EXPECT_EQ(pstlb::reduce(this->pol, v.begin(), v.end()),
              std::reduce(v.begin(), v.end()))
        << "n=" << n;
    EXPECT_EQ(pstlb::reduce(this->pol, v.begin(), v.end(), 100LL),
              std::reduce(v.begin(), v.end(), 100LL));
    EXPECT_EQ(pstlb::reduce(this->pol, v.begin(), v.end(), 1LL,
                            [](long long a, long long b) { return a ^ b; }),
              std::reduce(v.begin(), v.end(), 1LL,
                          [](long long a, long long b) { return a ^ b; }));
  }
}

PSTLB_POLICY_TEST(ReduceAlgos, TransformReduceForms) {
  const auto a = make_ints(10007);
  const auto b = make_ints(10007);
  EXPECT_EQ(pstlb::transform_reduce(this->pol, a.begin(), a.end(), b.begin(), 0LL),
            std::transform_reduce(a.begin(), a.end(), b.begin(), 0LL));
  EXPECT_EQ(pstlb::transform_reduce(this->pol, a.begin(), a.end(), 0LL, std::plus<>{},
                                    [](long long x) { return x % 7; }),
            std::transform_reduce(a.begin(), a.end(), 0LL, std::plus<>{},
                                  [](long long x) { return x % 7; }));
  EXPECT_EQ(pstlb::transform_reduce(this->pol, a.begin(), a.end(), b.begin(), 0LL,
                                    std::plus<>{},
                                    [](long long x, long long y) { return x ^ y; }),
            std::transform_reduce(a.begin(), a.end(), b.begin(), 0LL, std::plus<>{},
                                  [](long long x, long long y) { return x ^ y; }));
}

PSTLB_POLICY_TEST(ReduceAlgos, CountAndCountIf) {
  for (index_t n : pstlb::test::test_sizes()) {
    const auto v = make_ints(n);
    EXPECT_EQ(pstlb::count(this->pol, v.begin(), v.end(), 17LL),
              std::count(v.begin(), v.end(), 17LL))
        << n;
    EXPECT_EQ(pstlb::count_if(this->pol, v.begin(), v.end(),
                              [](long long x) { return x % 2 == 0; }),
              std::count_if(v.begin(), v.end(), [](long long x) { return x % 2 == 0; }));
  }
}

PSTLB_POLICY_TEST(ReduceAlgos, MinMaxElementsIncludingTies) {
  // Duplicated extrema check tie-breaking: min/max keep the first, the max
  // of minmax_element keeps the last.
  std::vector<int> v{5, 1, 9, 1, 9, 3, 1, 9, 2};
  EXPECT_EQ(pstlb::min_element(this->pol, v.begin(), v.end()) - v.begin(),
            std::min_element(v.begin(), v.end()) - v.begin());
  EXPECT_EQ(pstlb::max_element(this->pol, v.begin(), v.end()) - v.begin(),
            std::max_element(v.begin(), v.end()) - v.begin());
  const auto ours = pstlb::minmax_element(this->pol, v.begin(), v.end());
  const auto stds = std::minmax_element(v.begin(), v.end());
  EXPECT_EQ(ours.first - v.begin(), stds.first - v.begin());
  EXPECT_EQ(ours.second - v.begin(), stds.second - v.begin());

  for (index_t n : {index_t{1}, index_t{9973}, index_t{65536}}) {
    const auto big = make_ints(n);
    EXPECT_EQ(pstlb::min_element(this->pol, big.begin(), big.end()) - big.begin(),
              std::min_element(big.begin(), big.end()) - big.begin())
        << n;
    EXPECT_EQ(pstlb::max_element(this->pol, big.begin(), big.end()) - big.begin(),
              std::max_element(big.begin(), big.end()) - big.begin());
    const auto o = pstlb::minmax_element(this->pol, big.begin(), big.end());
    const auto s = std::minmax_element(big.begin(), big.end());
    EXPECT_EQ(o.first - big.begin(), s.first - big.begin());
    EXPECT_EQ(o.second - big.begin(), s.second - big.begin());
  }
}

PSTLB_POLICY_TEST(ReduceAlgos, FindFamilyReturnsFirstOccurrence) {
  auto v = make_ints(65536);
  v[60000] = -5;
  v[60001] = -5;
  EXPECT_EQ(pstlb::find(this->pol, v.begin(), v.end(), -5LL) - v.begin(), 60000);
  EXPECT_EQ(pstlb::find_if(this->pol, v.begin(), v.end(),
                           [](long long x) { return x < 0; }) -
                v.begin(),
            60000);
  EXPECT_EQ(pstlb::find_if_not(this->pol, v.begin(), v.end(),
                               [](long long x) { return x >= 0; }) -
                v.begin(),
            60000);
  EXPECT_EQ(pstlb::find(this->pol, v.begin(), v.end(), -999LL), v.end());
}

PSTLB_POLICY_TEST(ReduceAlgos, AnyAllNoneOf) {
  const auto v = make_ints(20000);
  EXPECT_TRUE(pstlb::all_of(this->pol, v.begin(), v.end(),
                            [](long long x) { return x >= 0; }));
  EXPECT_FALSE(pstlb::any_of(this->pol, v.begin(), v.end(),
                             [](long long x) { return x < 0; }));
  EXPECT_TRUE(pstlb::none_of(this->pol, v.begin(), v.end(),
                             [](long long x) { return x > 100000; }));
  // Empty ranges.
  EXPECT_TRUE(pstlb::all_of(this->pol, v.begin(), v.begin(),
                            [](long long) { return false; }));
  EXPECT_FALSE(pstlb::any_of(this->pol, v.begin(), v.begin(),
                             [](long long) { return true; }));
}

PSTLB_POLICY_TEST(ReduceAlgos, AdjacentFind) {
  auto v = make_ints(50000);
  // Make sure no accidental neighbors exist, then plant one pair.
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] == v[i - 1]) { v[i] += 1; }
  }
  EXPECT_EQ(pstlb::adjacent_find(this->pol, v.begin(), v.end()), v.end());
  v[30000] = v[29999];
  EXPECT_EQ(pstlb::adjacent_find(this->pol, v.begin(), v.end()) - v.begin(), 29999);
}

PSTLB_POLICY_TEST(ReduceAlgos, MismatchAndEqual) {
  const auto a = make_ints(30000);
  auto b = a;
  EXPECT_TRUE(pstlb::equal(this->pol, a.begin(), a.end(), b.begin()));
  EXPECT_EQ(pstlb::mismatch(this->pol, a.begin(), a.end(), b.begin()).first, a.end());
  b[20000] += 1;
  EXPECT_FALSE(pstlb::equal(this->pol, a.begin(), a.end(), b.begin()));
  EXPECT_EQ(pstlb::mismatch(this->pol, a.begin(), a.end(), b.begin()).first - a.begin(),
            20000);
  // Four-iterator forms.
  EXPECT_FALSE(pstlb::equal(this->pol, a.begin(), a.end(), b.begin(), b.end() - 1));
  const auto mm = pstlb::mismatch(this->pol, a.begin(), a.end(), b.begin(), b.end());
  EXPECT_EQ(mm.first - a.begin(), 20000);
}

PSTLB_POLICY_TEST(ReduceAlgos, SortednessChecks) {
  std::vector<int> sorted(40000);
  std::iota(sorted.begin(), sorted.end(), 0);
  EXPECT_TRUE(pstlb::is_sorted(this->pol, sorted.begin(), sorted.end()));
  EXPECT_EQ(pstlb::is_sorted_until(this->pol, sorted.begin(), sorted.end()),
            sorted.end());
  auto broken = sorted;
  broken[25000] = -1;
  EXPECT_FALSE(pstlb::is_sorted(this->pol, broken.begin(), broken.end()));
  EXPECT_EQ(pstlb::is_sorted_until(this->pol, broken.begin(), broken.end()) -
                broken.begin(),
            std::is_sorted_until(broken.begin(), broken.end()) - broken.begin());
}

PSTLB_POLICY_TEST(ReduceAlgos, HeapChecks) {
  std::vector<int> v = [] {
    std::vector<int> data;
    for (int i = 0; i < 30000; ++i) { data.push_back((i * 7919) % 100000); }
    std::make_heap(data.begin(), data.end());
    return data;
  }();
  EXPECT_TRUE(pstlb::is_heap(this->pol, v.begin(), v.end()));
  EXPECT_EQ(pstlb::is_heap_until(this->pol, v.begin(), v.end()), v.end());
  auto broken = v;
  broken[20000] = 1000000;
  EXPECT_FALSE(pstlb::is_heap(this->pol, broken.begin(), broken.end()));
  EXPECT_EQ(pstlb::is_heap_until(this->pol, broken.begin(), broken.end()) -
                broken.begin(),
            std::is_heap_until(broken.begin(), broken.end()) - broken.begin());
}

PSTLB_POLICY_TEST(ReduceAlgos, IsPartitioned) {
  std::vector<int> v(10000);
  std::iota(v.begin(), v.end(), 0);
  auto is_small = [](int x) { return x < 5000; };
  EXPECT_TRUE(pstlb::is_partitioned(this->pol, v.begin(), v.end(), is_small));
  std::swap(v[100], v[9000]);
  EXPECT_FALSE(pstlb::is_partitioned(this->pol, v.begin(), v.end(), is_small));
}

PSTLB_POLICY_TEST(ReduceAlgos, LexicographicalCompare) {
  const auto a = make_ints(20000);
  auto b = a;
  EXPECT_FALSE(pstlb::lexicographical_compare(this->pol, a.begin(), a.end(), b.begin(),
                                              b.end()));
  b[15000] += 1;
  EXPECT_TRUE(pstlb::lexicographical_compare(this->pol, a.begin(), a.end(), b.begin(),
                                             b.end()));
  EXPECT_FALSE(pstlb::lexicographical_compare(this->pol, b.begin(), b.end(), a.begin(),
                                              a.end()));
  // Prefix relation: shorter-but-equal compares less.
  EXPECT_TRUE(pstlb::lexicographical_compare(this->pol, a.begin(), a.end() - 1,
                                             a.begin(), a.end()));
}

PSTLB_POLICY_TEST(ReduceAlgos, SearchFamily) {
  const auto v = make_ints(50000);
  const std::vector<long long> needle(v.begin() + 33000, v.begin() + 33010);
  EXPECT_EQ(pstlb::search(this->pol, v.begin(), v.end(), needle.begin(), needle.end()) -
                v.begin(),
            std::search(v.begin(), v.end(), needle.begin(), needle.end()) - v.begin());
  const std::vector<long long> missing{1, 2, 3, 4, 5, -1};
  EXPECT_EQ(pstlb::search(this->pol, v.begin(), v.end(), missing.begin(), missing.end()),
            v.end());
  // Empty needle matches at the beginning.
  EXPECT_EQ(pstlb::search(this->pol, v.begin(), v.end(), missing.begin(),
                          missing.begin()),
            v.begin());

  std::vector<int> rep(20000, 0);
  rep[7000] = rep[7001] = rep[7002] = 1;
  EXPECT_EQ(pstlb::search_n(this->pol, rep.begin(), rep.end(), 3, 1) - rep.begin(), 7000);
  EXPECT_EQ(pstlb::search_n(this->pol, rep.begin(), rep.end(), 4, 1), rep.end());
}

PSTLB_POLICY_TEST(ReduceAlgos, FindEndAndFindFirstOf) {
  std::vector<int> v(40000, 0);
  const std::vector<int> pat{1, 2, 1};
  auto plant = [&](std::size_t at) {
    v[at] = 1;
    v[at + 1] = 2;
    v[at + 2] = 1;
  };
  plant(100);
  plant(25000);
  plant(39000);
  EXPECT_EQ(pstlb::find_end(this->pol, v.begin(), v.end(), pat.begin(), pat.end()) -
                v.begin(),
            39000);
  const std::vector<int> targets{7, 2};
  EXPECT_EQ(pstlb::find_first_of(this->pol, v.begin(), v.end(), targets.begin(),
                                 targets.end()) -
                v.begin(),
            101);
}

TEST(ReduceFloating, ReduceIsAccurateWithinTolerance) {
  std::vector<double> v(1 << 18, 0.1);
  auto pol = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
  const double sum = pstlb::reduce(pol, v.begin(), v.end());
  EXPECT_NEAR(sum, 0.1 * (1 << 18), 1e-6);
}

}  // namespace

// Set operations on sorted ranges (multiset semantics) vs std::, all
// policies, with duplicate-heavy inputs that stress the value-aligned cuts.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "pstlb/pstlb.hpp"
#include "support/policies.hpp"

namespace {

using pstlb::index_t;

// Sorted multiset with long equal runs (i/k) — the adversarial case for
// chunked set operations.
std::vector<int> sorted_multiset(index_t n, int run, int offset) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = static_cast<int>(i) / run + offset;
  }
  return v;
}

PSTLB_POLICY_TEST(SetAlgos, UnionMatchesStd) {
  for (auto [na, nb] : {std::pair<index_t, index_t>{0, 0}, {0, 100}, {100, 0},
                        {50000, 30000}, {9973, 9973}}) {
    const auto a = sorted_multiset(na, 7, 0);
    const auto b = sorted_multiset(nb, 3, 500);
    std::vector<int> out(a.size() + b.size()), expected(a.size() + b.size());
    auto e = std::set_union(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
    auto o = pstlb::set_union(this->pol, a.begin(), a.end(), b.begin(), b.end(),
                              out.begin());
    ASSERT_EQ(o - out.begin(), e - expected.begin()) << na << "," << nb;
    ASSERT_TRUE(std::equal(out.begin(), o, expected.begin()));
  }
}

PSTLB_POLICY_TEST(SetAlgos, IntersectionMatchesStd) {
  const auto a = sorted_multiset(60000, 5, 0);
  const auto b = sorted_multiset(40000, 2, 3000);
  std::vector<int> out(a.size()), expected(a.size());
  auto e =
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
  auto o = pstlb::set_intersection(this->pol, a.begin(), a.end(), b.begin(), b.end(),
                                   out.begin());
  ASSERT_EQ(o - out.begin(), e - expected.begin());
  ASSERT_TRUE(std::equal(out.begin(), o, expected.begin()));
}

PSTLB_POLICY_TEST(SetAlgos, DifferenceMatchesStd) {
  const auto a = sorted_multiset(60000, 4, 0);
  const auto b = sorted_multiset(30000, 6, 2000);
  std::vector<int> out(a.size()), expected(a.size());
  auto e = std::set_difference(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
  auto o = pstlb::set_difference(this->pol, a.begin(), a.end(), b.begin(), b.end(),
                                 out.begin());
  ASSERT_EQ(o - out.begin(), e - expected.begin());
  ASSERT_TRUE(std::equal(out.begin(), o, expected.begin()));
}

PSTLB_POLICY_TEST(SetAlgos, SymmetricDifferenceMatchesStd) {
  const auto a = sorted_multiset(50000, 3, 0);
  const auto b = sorted_multiset(50000, 5, 1000);
  std::vector<int> out(a.size() + b.size()), expected(a.size() + b.size());
  auto e = std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                         expected.begin());
  auto o = pstlb::set_symmetric_difference(this->pol, a.begin(), a.end(), b.begin(),
                                           b.end(), out.begin());
  ASSERT_EQ(o - out.begin(), e - expected.begin());
  ASSERT_TRUE(std::equal(out.begin(), o, expected.begin()));
}

PSTLB_POLICY_TEST(SetAlgos, IncludesMultisetSemantics) {
  const auto hay = sorted_multiset(100000, 4, 0);  // each value 4 times
  auto needle = sorted_multiset(20000, 2, 1000);   // each value twice, subset range
  EXPECT_TRUE(
      pstlb::includes(this->pol, hay.begin(), hay.end(), needle.begin(), needle.end()));

  // Five copies of one value cannot be included in four.
  std::vector<int> five(5, 5000);
  EXPECT_FALSE(
      pstlb::includes(this->pol, hay.begin(), hay.end(), five.begin(), five.end()));

  // Empty needle is always included.
  EXPECT_TRUE(
      pstlb::includes(this->pol, hay.begin(), hay.end(), needle.begin(), needle.begin()));

  // Value outside the haystack range.
  std::vector<int> outside{static_cast<int>(100000)};
  EXPECT_EQ(pstlb::includes(this->pol, hay.begin(), hay.end(), outside.begin(),
                            outside.end()),
            std::includes(hay.begin(), hay.end(), outside.begin(), outside.end()));
}

PSTLB_POLICY_TEST(SetAlgos, CustomComparator) {
  auto a = sorted_multiset(30000, 3, 0);
  auto b = sorted_multiset(20000, 2, 500);
  std::reverse(a.begin(), a.end());
  std::reverse(b.begin(), b.end());
  std::vector<int> out(a.size() + b.size()), expected(a.size() + b.size());
  auto e = std::set_union(a.begin(), a.end(), b.begin(), b.end(), expected.begin(),
                          std::greater<>{});
  auto o = pstlb::set_union(this->pol, a.begin(), a.end(), b.begin(), b.end(),
                            out.begin(), std::greater<>{});
  ASSERT_EQ(o - out.begin(), e - expected.begin());
  ASSERT_TRUE(std::equal(out.begin(), o, expected.begin()));
}

}  // namespace

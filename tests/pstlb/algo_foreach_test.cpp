// Map-family algorithms vs their std:: counterparts, over every policy type
// and a boundary-heavy size grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "pstlb/pstlb.hpp"
#include "support/policies.hpp"

namespace {

using pstlb::index_t;

std::vector<double> make_input(index_t n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = static_cast<double>((i * 37 + 11) % 1000);
  }
  return v;
}

PSTLB_POLICY_TEST(ForeachAlgos, ForEachAppliesToAll) {
  for (index_t n : pstlb::test::test_sizes()) {
    auto v = make_input(n);
    auto expected = v;
    std::for_each(expected.begin(), expected.end(), [](double& x) { x = x * 2 + 1; });
    pstlb::for_each(this->pol, v.begin(), v.end(), [](double& x) { x = x * 2 + 1; });
    ASSERT_EQ(v, expected) << "n=" << n;
  }
}

PSTLB_POLICY_TEST(ForeachAlgos, ForEachNReturnsEnd) {
  auto v = make_input(1000);
  auto end = pstlb::for_each_n(this->pol, v.begin(), 600, [](double& x) { x = -x; });
  EXPECT_EQ(end, v.begin() + 600);
  EXPECT_LE(v[0], 0);
  EXPECT_GT(v[600], 0);
}

PSTLB_POLICY_TEST(ForeachAlgos, TransformUnary) {
  for (index_t n : pstlb::test::test_sizes()) {
    const auto v = make_input(n);
    std::vector<double> out(v.size()), expected(v.size());
    std::transform(v.begin(), v.end(), expected.begin(), [](double x) { return x * x; });
    auto ret = pstlb::transform(this->pol, v.begin(), v.end(), out.begin(),
                                [](double x) { return x * x; });
    EXPECT_EQ(ret, out.end());
    ASSERT_EQ(out, expected) << "n=" << n;
  }
}

PSTLB_POLICY_TEST(ForeachAlgos, TransformBinary) {
  const index_t n = 12345;
  const auto a = make_input(n);
  auto b = make_input(n);
  std::reverse(b.begin(), b.end());
  std::vector<double> out(a.size()), expected(a.size());
  std::transform(a.begin(), a.end(), b.begin(), expected.begin(), std::plus<>{});
  pstlb::transform(this->pol, a.begin(), a.end(), b.begin(), out.begin(), std::plus<>{});
  ASSERT_EQ(out, expected);
}

PSTLB_POLICY_TEST(ForeachAlgos, FillAndFillN) {
  for (index_t n : pstlb::test::test_sizes()) {
    std::vector<double> v(static_cast<std::size_t>(n), 0.0);
    pstlb::fill(this->pol, v.begin(), v.end(), 3.5);
    EXPECT_TRUE(std::all_of(v.begin(), v.end(), [](double x) { return x == 3.5; }));
  }
  std::vector<double> v(100, 0.0);
  auto end = pstlb::fill_n(this->pol, v.begin(), 60, 1.0);
  EXPECT_EQ(end, v.begin() + 60);
  EXPECT_EQ(std::count(v.begin(), v.end(), 1.0), 60);
}

PSTLB_POLICY_TEST(ForeachAlgos, GenerateIsStatelesslyCorrect) {
  std::vector<double> v(10000, 0.0);
  pstlb::generate(this->pol, v.begin(), v.end(), [] { return 7.0; });
  EXPECT_TRUE(std::all_of(v.begin(), v.end(), [](double x) { return x == 7.0; }));
  auto end = pstlb::generate_n(this->pol, v.begin(), 5000, [] { return 9.0; });
  EXPECT_EQ(end, v.begin() + 5000);
  EXPECT_EQ(std::count(v.begin(), v.end(), 9.0), 5000);
}

PSTLB_POLICY_TEST(ForeachAlgos, CopyAndCopyN) {
  for (index_t n : pstlb::test::test_sizes()) {
    const auto v = make_input(n);
    std::vector<double> out(v.size(), -1.0);
    auto ret = pstlb::copy(this->pol, v.begin(), v.end(), out.begin());
    EXPECT_EQ(ret, out.end());
    ASSERT_EQ(out, v) << "n=" << n;
  }
  const auto v = make_input(1000);
  std::vector<double> out(1000, -1.0);
  pstlb::copy_n(this->pol, v.begin(), 500, out.begin());
  EXPECT_TRUE(std::equal(v.begin(), v.begin() + 500, out.begin()));
  EXPECT_EQ(out[500], -1.0);
}

PSTLB_POLICY_TEST(ForeachAlgos, MoveMovesValues) {
  std::vector<std::string> src;
  for (int i = 0; i < 5000; ++i) { src.push_back("value-" + std::to_string(i)); }
  auto expected = src;
  std::vector<std::string> out(src.size());
  pstlb::move(this->pol, src.begin(), src.end(), out.begin());
  ASSERT_EQ(out, expected);
}

PSTLB_POLICY_TEST(ForeachAlgos, SwapRanges) {
  auto a = make_input(9999);
  auto b = make_input(9999);
  std::for_each(b.begin(), b.end(), [](double& x) { x += 1e6; });
  const auto a0 = a;
  const auto b0 = b;
  pstlb::swap_ranges(this->pol, a.begin(), a.end(), b.begin());
  EXPECT_EQ(a, b0);
  EXPECT_EQ(b, a0);
}

PSTLB_POLICY_TEST(ForeachAlgos, ReplaceFamily) {
  auto v = make_input(10000);
  auto expected = v;
  std::replace(expected.begin(), expected.end(), 11.0, -1.0);
  pstlb::replace(this->pol, v.begin(), v.end(), 11.0, -1.0);
  ASSERT_EQ(v, expected);

  std::replace_if(expected.begin(), expected.end(), [](double x) { return x > 500; }, 0.0);
  pstlb::replace_if(this->pol, v.begin(), v.end(), [](double x) { return x > 500; }, 0.0);
  ASSERT_EQ(v, expected);

  std::vector<double> out(v.size()), out_expected(v.size());
  std::replace_copy(v.begin(), v.end(), out_expected.begin(), 0.0, 42.0);
  pstlb::replace_copy(this->pol, v.begin(), v.end(), out.begin(), 0.0, 42.0);
  ASSERT_EQ(out, out_expected);
}

PSTLB_POLICY_TEST(ForeachAlgos, ReverseOddAndEven) {
  for (index_t n : {index_t{0}, index_t{1}, index_t{2}, index_t{9}, index_t{10},
                    index_t{10001}}) {
    auto v = make_input(n);
    auto expected = v;
    std::reverse(expected.begin(), expected.end());
    pstlb::reverse(this->pol, v.begin(), v.end());
    ASSERT_EQ(v, expected) << "n=" << n;
  }
}

PSTLB_POLICY_TEST(ForeachAlgos, ReverseCopy) {
  const auto v = make_input(8191);
  std::vector<double> out(v.size()), expected(v.size());
  std::reverse_copy(v.begin(), v.end(), expected.begin());
  pstlb::reverse_copy(this->pol, v.begin(), v.end(), out.begin());
  ASSERT_EQ(out, expected);
}

PSTLB_POLICY_TEST(ForeachAlgos, RotateAndRotateCopy) {
  for (index_t shift : {index_t{0}, index_t{1}, index_t{1000}, index_t{9999},
                        index_t{10000}}) {
    auto v = make_input(10000);
    auto expected = v;
    std::rotate(expected.begin(), expected.begin() + shift, expected.end());
    auto ret = pstlb::rotate(this->pol, v.begin(), v.begin() + shift, v.end());
    ASSERT_EQ(v, expected) << "shift=" << shift;
    EXPECT_EQ(ret - v.begin(), 10000 - shift);
  }
  const auto v = make_input(5000);
  std::vector<double> out(v.size()), expected(v.size());
  std::rotate_copy(v.begin(), v.begin() + 1234, v.end(), expected.begin());
  pstlb::rotate_copy(this->pol, v.begin(), v.begin() + 1234, v.end(), out.begin());
  ASSERT_EQ(out, expected);
}

PSTLB_POLICY_TEST(ForeachAlgos, ShiftLeftAndRight) {
  for (index_t shift : {index_t{0}, index_t{1}, index_t{777}, index_t{9999},
                        index_t{10000}, index_t{20000}}) {
    auto v = make_input(10000);
    auto expected = v;
    auto e = std::shift_left(expected.begin(), expected.end(), shift);
    auto o = pstlb::shift_left(this->pol, v.begin(), v.end(), shift);
    ASSERT_EQ(o - v.begin(), e - expected.begin()) << "shift=" << shift;
    ASSERT_TRUE(std::equal(v.begin(), o, expected.begin())) << "shift=" << shift;

    auto v2 = make_input(10000);
    auto expected2 = v2;
    auto e2 = std::shift_right(expected2.begin(), expected2.end(), shift);
    auto o2 = pstlb::shift_right(this->pol, v2.begin(), v2.end(), shift);
    ASSERT_EQ(o2 - v2.begin(), e2 - expected2.begin()) << "shift=" << shift;
    ASSERT_TRUE(std::equal(o2, v2.end(), e2)) << "shift=" << shift;
  }
}

PSTLB_POLICY_TEST(ForeachAlgos, AdjacentDifference) {
  for (index_t n : {index_t{1}, index_t{2}, index_t{10000}}) {
    const auto v = make_input(n);
    std::vector<double> out(v.size()), expected(v.size());
    std::adjacent_difference(v.begin(), v.end(), expected.begin());
    pstlb::adjacent_difference(this->pol, v.begin(), v.end(), out.begin());
    ASSERT_EQ(out, expected) << "n=" << n;
  }
}

PSTLB_POLICY_TEST(ForeachAlgos, UninitializedFamily) {
  const std::size_t n = 4096;
  std::allocator<std::string> alloc;
  std::string* raw = alloc.allocate(n);
  pstlb::uninitialized_fill(this->pol, raw, raw + n, std::string("abc"));
  EXPECT_TRUE(std::all_of(raw, raw + n, [](const std::string& s) { return s == "abc"; }));
  pstlb::destroy(this->pol, raw, raw + n);

  std::vector<std::string> src(n, "xyz");
  pstlb::uninitialized_copy(this->pol, src.begin(), src.end(), raw);
  EXPECT_TRUE(std::all_of(raw, raw + n, [](const std::string& s) { return s == "xyz"; }));
  pstlb::destroy_n(this->pol, raw, n);
  alloc.deallocate(raw, n);
}

TEST(ForeachSeq, SeqPolicyMatchesStd) {
  auto v = make_input(1000);
  auto expected = v;
  std::for_each(expected.begin(), expected.end(), [](double& x) { x += 1; });
  pstlb::for_each(pstlb::exec::seq, v.begin(), v.end(), [](double& x) { x += 1; });
  EXPECT_EQ(v, expected);
}

}  // namespace

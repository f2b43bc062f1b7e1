// Scan-family and pack-family algorithms vs std::, all policies — including
// non-commutative operators, a 1..N thread sweep across the one-chunk edge,
// the bytes-read accounting of the single-pass skeleton, and the one-chunk
// inputs that skip admission.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "counters/counters.hpp"
#include "pstlb/pstlb.hpp"
#include "sched/arena.hpp"
#include "support/policies.hpp"

namespace {

using pstlb::index_t;

std::vector<long long> make_ints(index_t n) {
  std::vector<long long> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = (i * 1103515245LL + 12345) % 1000;
  }
  return v;
}

PSTLB_POLICY_TEST(ScanAlgos, InclusiveScanAllForms) {
  for (index_t n : pstlb::test::test_sizes()) {
    const auto v = make_ints(n);
    std::vector<long long> out(v.size()), expected(v.size());

    std::inclusive_scan(v.begin(), v.end(), expected.begin());
    auto ret = pstlb::inclusive_scan(this->pol, v.begin(), v.end(), out.begin());
    EXPECT_EQ(ret, out.end());
    ASSERT_EQ(out, expected) << "n=" << n;

    std::inclusive_scan(v.begin(), v.end(), expected.begin(), std::plus<>{});
    pstlb::inclusive_scan(this->pol, v.begin(), v.end(), out.begin(), std::plus<>{});
    ASSERT_EQ(out, expected);

    std::inclusive_scan(v.begin(), v.end(), expected.begin(), std::plus<>{}, 1000LL);
    pstlb::inclusive_scan(this->pol, v.begin(), v.end(), out.begin(), std::plus<>{},
                          1000LL);
    ASSERT_EQ(out, expected) << "n=" << n;
  }
}

PSTLB_POLICY_TEST(ScanAlgos, ExclusiveScan) {
  for (index_t n : pstlb::test::test_sizes()) {
    const auto v = make_ints(n);
    std::vector<long long> out(v.size()), expected(v.size());
    std::exclusive_scan(v.begin(), v.end(), expected.begin(), 7LL);
    auto ret = pstlb::exclusive_scan(this->pol, v.begin(), v.end(), out.begin(), 7LL);
    EXPECT_EQ(ret, out.end());
    ASSERT_EQ(out, expected) << "n=" << n;

    // Custom op must be associative (a std:: requirement too): use max.
    auto maxop = [](long long a, long long b) { return a > b ? a : b; };
    std::exclusive_scan(v.begin(), v.end(), expected.begin(), -1LL, maxop);
    pstlb::exclusive_scan(this->pol, v.begin(), v.end(), out.begin(), -1LL, maxop);
    ASSERT_EQ(out, expected);
  }
}

PSTLB_POLICY_TEST(ScanAlgos, TransformScans) {
  const auto v = make_ints(30000);
  std::vector<long long> out(v.size()), expected(v.size());
  auto square = [](long long x) { return x * x; };

  std::transform_inclusive_scan(v.begin(), v.end(), expected.begin(), std::plus<>{},
                                square);
  pstlb::transform_inclusive_scan(this->pol, v.begin(), v.end(), out.begin(),
                                  std::plus<>{}, square);
  ASSERT_EQ(out, expected);

  std::transform_inclusive_scan(v.begin(), v.end(), expected.begin(), std::plus<>{},
                                square, 5LL);
  pstlb::transform_inclusive_scan(this->pol, v.begin(), v.end(), out.begin(),
                                  std::plus<>{}, square, 5LL);
  ASSERT_EQ(out, expected);

  std::transform_exclusive_scan(v.begin(), v.end(), expected.begin(), 5LL,
                                std::plus<>{}, square);
  pstlb::transform_exclusive_scan(this->pol, v.begin(), v.end(), out.begin(), 5LL,
                                  std::plus<>{}, square);
  ASSERT_EQ(out, expected);
}

PSTLB_POLICY_TEST(ScanAlgos, CopyIfKeepsOrder) {
  for (index_t n : pstlb::test::test_sizes()) {
    const auto v = make_ints(n);
    std::vector<long long> out(v.size(), -99), expected(v.size(), -99);
    auto pred = [](long long x) { return x % 3 == 0; };
    auto expected_end = std::copy_if(v.begin(), v.end(), expected.begin(), pred);
    auto out_end = pstlb::copy_if(this->pol, v.begin(), v.end(), out.begin(), pred);
    ASSERT_EQ(out_end - out.begin(), expected_end - expected.begin()) << n;
    ASSERT_EQ(out, expected) << "n=" << n;
  }
}

PSTLB_POLICY_TEST(ScanAlgos, RemoveCopyFamily) {
  const auto v = make_ints(20000);
  std::vector<long long> out(v.size()), expected(v.size());
  auto e1 = std::remove_copy(v.begin(), v.end(), expected.begin(), 17LL);
  auto o1 = pstlb::remove_copy(this->pol, v.begin(), v.end(), out.begin(), 17LL);
  EXPECT_EQ(o1 - out.begin(), e1 - expected.begin());
  EXPECT_EQ(out, expected);

  auto pred = [](long long x) { return x < 100; };
  auto e2 = std::remove_copy_if(v.begin(), v.end(), expected.begin(), pred);
  auto o2 = pstlb::remove_copy_if(this->pol, v.begin(), v.end(), out.begin(), pred);
  EXPECT_EQ(o2 - out.begin(), e2 - expected.begin());
  EXPECT_EQ(out, expected);
}

PSTLB_POLICY_TEST(ScanAlgos, PartitionCopySplitsBoth) {
  const auto v = make_ints(30000);
  auto pred = [](long long x) { return x % 2 == 0; };
  std::vector<long long> t_out(v.size()), f_out(v.size()), t_exp(v.size()),
      f_exp(v.size());
  auto exp = std::partition_copy(v.begin(), v.end(), t_exp.begin(), f_exp.begin(), pred);
  auto got =
      pstlb::partition_copy(this->pol, v.begin(), v.end(), t_out.begin(), f_out.begin(), pred);
  EXPECT_EQ(got.first - t_out.begin(), exp.first - t_exp.begin());
  EXPECT_EQ(got.second - f_out.begin(), exp.second - f_exp.begin());
  EXPECT_EQ(t_out, t_exp);
  EXPECT_EQ(f_out, f_exp);
}

PSTLB_POLICY_TEST(ScanAlgos, UniqueFamilies) {
  for (index_t n : {index_t{0}, index_t{1}, index_t{2}, index_t{10000}}) {
    auto v = make_ints(n);
    std::sort(v.begin(), v.end());  // create long equal runs

    std::vector<long long> out(v.size()), expected(v.size());
    auto e = std::unique_copy(v.begin(), v.end(), expected.begin());
    auto o = pstlb::unique_copy(this->pol, v.begin(), v.end(), out.begin());
    ASSERT_EQ(o - out.begin(), e - expected.begin()) << n;
    ASSERT_TRUE(std::equal(out.begin(), o, expected.begin())) << n;

    auto v2 = v;
    auto e2 = std::unique(v.begin(), v.end());
    auto o2 = pstlb::unique(this->pol, v2.begin(), v2.end());
    ASSERT_EQ(o2 - v2.begin(), e2 - v.begin()) << n;
    ASSERT_TRUE(std::equal(v2.begin(), o2, v.begin()));
  }
}

PSTLB_POLICY_TEST(ScanAlgos, RemoveInPlace) {
  auto v = make_ints(20000);
  auto expected = v;
  auto e = std::remove_if(expected.begin(), expected.end(),
                          [](long long x) { return x % 5 == 0; });
  auto o = pstlb::remove_if(this->pol, v.begin(), v.end(),
                            [](long long x) { return x % 5 == 0; });
  ASSERT_EQ(o - v.begin(), e - expected.begin());
  ASSERT_TRUE(std::equal(v.begin(), o, expected.begin()));

  auto v2 = make_ints(20000);
  auto expected2 = v2;
  auto e2 = std::remove(expected2.begin(), expected2.end(), 17LL);
  auto o2 = pstlb::remove(this->pol, v2.begin(), v2.end(), 17LL);
  ASSERT_EQ(o2 - v2.begin(), e2 - expected2.begin());
  ASSERT_TRUE(std::equal(v2.begin(), o2, expected2.begin()));
}

// 2x2 integer matrices under multiplication: associative, emphatically not
// commutative. Entries stay small via mod arithmetic.
struct mat2 {
  std::array<long long, 4> m{1, 0, 0, 1};  // identity
  friend mat2 operator*(const mat2& a, const mat2& b) {
    constexpr long long kMod = 1000003;
    mat2 r;
    r.m = {(a.m[0] * b.m[0] + a.m[1] * b.m[2]) % kMod,
           (a.m[0] * b.m[1] + a.m[1] * b.m[3]) % kMod,
           (a.m[2] * b.m[0] + a.m[3] * b.m[2]) % kMod,
           (a.m[2] * b.m[1] + a.m[3] * b.m[3]) % kMod};
    return r;
  }
  friend bool operator==(const mat2& a, const mat2& b) { return a.m == b.m; }
};

PSTLB_POLICY_TEST(ScanAlgos, InclusiveScanNonCommutativeStrings) {
  // Large enough that the lookback path engages (n >= 2^12) with many
  // chunks; a commutativity violation anywhere scrambles character order.
  const index_t n = 6000;
  std::vector<std::string> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = std::string(1, static_cast<char>('a' + i % 26));
  }
  std::vector<std::string> out(v.size()), expected(v.size());
  auto concat = [](std::string a, std::string b) { return std::move(a) + b; };
  std::inclusive_scan(v.begin(), v.end(), expected.begin(), concat);
  pstlb::inclusive_scan(this->pol, v.begin(), v.end(), out.begin(), concat);
  ASSERT_EQ(out, expected);

  // With an init, only the first chunk starts from it and the chained prefix
  // carries it on: it must appear once, leftmost, in every output. A letter
  // every 64 elements keeps the prefixes of 2^15 elements (16 chunks) short.
  const index_t m = index_t{1} << 15;
  std::vector<std::string> sparse(static_cast<std::size_t>(m));
  for (index_t i = 0; i < m; i += 64) {
    sparse[static_cast<std::size_t>(i)] =
        std::string(1, static_cast<char>('a' + (i / 64) % 26));
  }
  const std::string init = "<init>";
  out.assign(sparse.size(), std::string{});
  expected.assign(sparse.size(), std::string{});
  std::inclusive_scan(sparse.begin(), sparse.end(), expected.begin(), concat, init);
  pstlb::inclusive_scan(this->pol, sparse.begin(), sparse.end(), out.begin(), concat,
                        init);
  ASSERT_EQ(out, expected);
}

PSTLB_POLICY_TEST(ScanAlgos, ScansNonCommutativeMatrixCompose) {
  const index_t n = 20000;
  std::vector<mat2> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)].m = {i % 7 + 1, i % 5, i % 3, i % 11 + 1};
  }
  std::vector<mat2> out(v.size()), expected(v.size());
  std::inclusive_scan(v.begin(), v.end(), expected.begin(), std::multiplies<>{});
  pstlb::inclusive_scan(this->pol, v.begin(), v.end(), out.begin(), std::multiplies<>{});
  ASSERT_EQ(out, expected);

  std::exclusive_scan(v.begin(), v.end(), expected.begin(), mat2{}, std::multiplies<>{});
  pstlb::exclusive_scan(this->pol, v.begin(), v.end(), out.begin(), mat2{},
                        std::multiplies<>{});
  ASSERT_EQ(out, expected);
}

PSTLB_POLICY_TEST(ScanAlgos, MatchesStdAcrossThreadSweep) {
  // Stress the scan and pack paths while pinning 1..N threads (the
  // exclusive scan carries its init 7 in the chained prefix). Covers the
  // "one worker drains every ticket" and "more workers than chunks" ends of
  // the lookback protocol, the one-chunk edge (2048 runs on the caller,
  // 2049 is two chunks) and the few-chunk band below 2^12.
  for (index_t n : {index_t{2048}, index_t{2049}, index_t{3000}, index_t{4095},
                    index_t{1} << 16}) {
    const auto v = make_ints(n);
    std::vector<long long> expected(v.size());
    std::inclusive_scan(v.begin(), v.end(), expected.begin());
    std::vector<long long> exclusive_expected(v.size());
    std::exclusive_scan(v.begin(), v.end(), exclusive_expected.begin(), 7LL);
    auto pred = [](long long x) { return x % 7 < 3; };
    std::vector<long long> packed_expected(v.size(), -7);
    const auto packed_end =
        std::copy_if(v.begin(), v.end(), packed_expected.begin(), pred);
    for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
      const auto swept = pstlb::test::make_eager(this->id, threads);
      std::vector<long long> out(v.size());
      pstlb::inclusive_scan(swept, v.begin(), v.end(), out.begin());
      ASSERT_EQ(out, expected) << "n=" << n << " threads=" << threads;
      pstlb::exclusive_scan(swept, v.begin(), v.end(), out.begin(), 7LL);
      ASSERT_EQ(out, exclusive_expected) << "n=" << n << " threads=" << threads;
      std::vector<long long> packed(v.size(), -7);
      const auto out_end =
          pstlb::copy_if(swept, v.begin(), v.end(), packed.begin(), pred);
      ASSERT_EQ(out_end - packed.begin(), packed_end - packed_expected.begin());
      ASSERT_EQ(packed, packed_expected) << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ScanCounters, ScanReadsInputOnce) {
  // The software traffic accounting mirrors what PAPI would see: both the
  // sequential path and the single-pass skeleton (whose second read of a
  // chunk is cache-resident) stream the input from DRAM once.
  auto pol = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
  for (index_t n : {index_t{2048}, index_t{1} << 16}) {
    const auto v = make_ints(n);
    std::vector<long long> out(v.size());
    pstlb::counters::region r("scan_traffic");
    pstlb::inclusive_scan(pol, v.begin(), v.end(), out.begin());
    EXPECT_DOUBLE_EQ(r.stop().bytes_read, static_cast<double>(n) * sizeof(long long))
        << "n=" << n;
  }
}

TEST(ScanAdmission, OneChunkInputsSkipAdmission) {
  // An input of at most one scan chunk runs on its caller at any width, so
  // it takes no ledger grant; one element more is two chunks and one grant.
  // A fixed 4-wide steal policy is execution::par's backend on any host.
  const pstlb::exec::policy par = pstlb::exec::steal_policy{4};
  auto& arena = pstlb::sched::arena::default_arena();
  auto pred = [](long long x) { return x % 3 == 0; };
  for (index_t n : {pstlb::backends::scan_min_chunk, pstlb::backends::scan_min_chunk + 1}) {
    const std::uint64_t grants = n > pstlb::backends::scan_min_chunk ? 1 : 0;
    const auto v = make_ints(n);
    std::vector<long long> out(v.size()), expected(v.size());
    std::inclusive_scan(v.begin(), v.end(), expected.begin());
    std::uint64_t before = arena.snapshot().admitted;
    pstlb::inclusive_scan(par, v.begin(), v.end(), out.begin());
    EXPECT_EQ(arena.snapshot().admitted, before + grants) << "inclusive_scan n=" << n;
    EXPECT_EQ(out, expected);

    const auto expected_end = std::copy_if(v.begin(), v.end(), expected.begin(), pred);
    before = arena.snapshot().admitted;
    const auto out_end = pstlb::copy_if(par, v.begin(), v.end(), out.begin(), pred);
    EXPECT_EQ(arena.snapshot().admitted, before + grants) << "copy_if n=" << n;
    ASSERT_EQ(out_end - out.begin(), expected_end - expected.begin());
    EXPECT_TRUE(std::equal(out.begin(), out_end, expected.begin()));

    // The in-place removals pack through copy_if / unique_copy.
    out = v;
    before = arena.snapshot().admitted;
    const auto removed_end = pstlb::remove_if(par, out.begin(), out.end(), pred);
    EXPECT_EQ(arena.snapshot().admitted, before + grants) << "remove_if n=" << n;
    expected = v;
    ASSERT_EQ(removed_end - out.begin(),
              std::remove_if(expected.begin(), expected.end(), pred) - expected.begin());
    EXPECT_TRUE(std::equal(out.begin(), removed_end, expected.begin()));
    for (auto& x : out) { x /= 3; }  // runs of equal values
    expected = out;
    before = arena.snapshot().admitted;
    const auto unique_end = pstlb::unique(par, out.begin(), out.end());
    EXPECT_EQ(arena.snapshot().admitted, before + grants) << "unique n=" << n;
    ASSERT_EQ(unique_end - out.begin(),
              std::unique(expected.begin(), expected.end()) - expected.begin());
    EXPECT_TRUE(std::equal(out.begin(), unique_end, expected.begin()));
  }
}

TEST(ScanProperty, ScanThenAdjacentDifferenceIsIdentity) {
  auto pol = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
  const auto v = make_ints(50000);
  std::vector<long long> scanned(v.size()), recovered(v.size());
  pstlb::inclusive_scan(pol, v.begin(), v.end(), scanned.begin());
  pstlb::adjacent_difference(pol, scanned.begin(), scanned.end(), recovered.begin());
  EXPECT_EQ(recovered, v);
}

}  // namespace

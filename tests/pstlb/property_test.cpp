// Property-based sweeps (TEST_P over size x backend x grain): algebraic
// invariants that must hold for every scheduling configuration, with
// deterministic pseudo-random inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "pstlb/pstlb.hpp"
#include "support/policies.hpp"

namespace {

using pstlb::index_t;

std::vector<long long> seeded_values(index_t n, std::uint64_t seed) {
  std::vector<long long> v(static_cast<std::size_t>(n));
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  for (auto& x : v) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    x = static_cast<long long>(state >> 40);
  }
  return v;
}

struct sweep_param {
  index_t n;
  pstlb::test::profile backend;
  index_t grain;  // 0 = auto
};

void PrintTo(const sweep_param& p, std::ostream* os) {
  *os << "n=" << p.n << " backend=" << pstlb::test::name_of(p.backend)
      << " grain=" << p.grain;
}

class PropertySweep : public ::testing::TestWithParam<sweep_param> {
 protected:
  template <class F>
  auto with_policy(F&& f) const {
    const auto p = GetParam();
    pstlb::exec::policy policy = pstlb::test::make_eager(p.backend, 4, p.grain);
    return f(policy);
  }
};

TEST_P(PropertySweep, SortProducesSortedPermutation) {
  const auto p = GetParam();
  auto v = seeded_values(p.n, 11);
  auto sorted_ref = v;
  std::sort(sorted_ref.begin(), sorted_ref.end());
  with_policy([&](const pstlb::exec::policy& policy) {
    pstlb::sort(policy, v.begin(), v.end());
    return 0;
  });
  ASSERT_EQ(v, sorted_ref);
}

TEST_P(PropertySweep, ReduceEqualsSequentialSum) {
  const auto p = GetParam();
  const auto v = seeded_values(p.n, 23);
  const long long expected = std::accumulate(v.begin(), v.end(), 0LL);
  const long long got = with_policy([&](const pstlb::exec::policy& policy) {
    return pstlb::reduce(policy, v.begin(), v.end(), 0LL);
  });
  ASSERT_EQ(got, expected);
}

TEST_P(PropertySweep, ScanLastElementEqualsReduce) {
  const auto p = GetParam();
  if (p.n == 0) { GTEST_SKIP(); }
  const auto v = seeded_values(p.n, 31);
  std::vector<long long> out(v.size());
  const long long total = with_policy([&](const pstlb::exec::policy& policy) {
    pstlb::inclusive_scan(policy, v.begin(), v.end(), out.begin());
    return pstlb::reduce(policy, v.begin(), v.end(), 0LL);
  });
  ASSERT_EQ(out.back(), total);
  // Prefix monotone consistency: out[i] - out[i-1] == v[i].
  for (std::size_t i = 1; i < out.size(); i += std::max<std::size_t>(1, out.size() / 64)) {
    ASSERT_EQ(out[i] - out[i - 1], v[i]) << i;
  }
}

TEST_P(PropertySweep, ExclusivePlusElementEqualsInclusive) {
  const auto p = GetParam();
  if (p.n == 0) { GTEST_SKIP(); }
  const auto v = seeded_values(p.n, 37);
  std::vector<long long> inc(v.size()), exc(v.size());
  with_policy([&](const pstlb::exec::policy& policy) {
    pstlb::inclusive_scan(policy, v.begin(), v.end(), inc.begin());
    pstlb::exclusive_scan(policy, v.begin(), v.end(), exc.begin(), 0LL);
    return 0;
  });
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(exc[i] + v[i], inc[i]) << i;
  }
}

TEST_P(PropertySweep, FindAgreesWithStdFind) {
  const auto p = GetParam();
  if (p.n == 0) { GTEST_SKIP(); }
  auto v = seeded_values(p.n, 41);
  // Plant a known value at a pseudo-random position.
  const index_t pos = (p.n * 7) / 11;
  v[static_cast<std::size_t>(pos)] = -42;
  const auto expected = std::find(v.begin(), v.end(), -42LL) - v.begin();
  const auto got = with_policy([&](const pstlb::exec::policy& policy) {
    return pstlb::find(policy, v.begin(), v.end(), -42LL) - v.begin();
  });
  ASSERT_EQ(got, expected);
}

TEST_P(PropertySweep, CopyIfPlusRemoveCopyIfPartitionsInput) {
  const auto p = GetParam();
  const auto v = seeded_values(p.n, 43);
  auto pred = [](long long x) { return x % 3 == 0; };
  std::vector<long long> kept(v.size()), dropped(v.size());
  index_t nk = 0;
  index_t nd = 0;
  with_policy([&](const pstlb::exec::policy& policy) {
    nk = pstlb::copy_if(policy, v.begin(), v.end(), kept.begin(), pred) - kept.begin();
    nd = pstlb::remove_copy_if(policy, v.begin(), v.end(), dropped.begin(), pred) -
         dropped.begin();
    return 0;
  });
  ASSERT_EQ(nk + nd, p.n);
  ASSERT_TRUE(std::all_of(kept.begin(), kept.begin() + nk, pred));
  ASSERT_TRUE(std::none_of(dropped.begin(), dropped.begin() + nd, pred));
}

TEST_P(PropertySweep, MinMaxElementsBoundTheRange) {
  const auto p = GetParam();
  if (p.n == 0) { GTEST_SKIP(); }
  const auto v = seeded_values(p.n, 47);
  with_policy([&](const pstlb::exec::policy& policy) {
    const auto mn = pstlb::min_element(policy, v.begin(), v.end());
    const auto mx = pstlb::max_element(policy, v.begin(), v.end());
    EXPECT_EQ(*mn, *std::min_element(v.begin(), v.end()));
    EXPECT_EQ(*mx, *std::max_element(v.begin(), v.end()));
    return 0;
  });
}

TEST_P(PropertySweep, SortThenUniqueEqualsSetSemantics) {
  const auto p = GetParam();
  auto v = seeded_values(p.n, 53);
  for (auto& x : v) { x %= 97; }  // force duplicates
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
  index_t count = 0;
  with_policy([&](const pstlb::exec::policy& policy) {
    pstlb::sort(policy, v.begin(), v.end());
    count = pstlb::unique(policy, v.begin(), v.end()) - v.begin();
    return 0;
  });
  ASSERT_EQ(count, static_cast<index_t>(expected.size()));
  ASSERT_TRUE(std::equal(v.begin(), v.begin() + count, expected.begin()));
}

std::vector<sweep_param> sweep_grid() {
  std::vector<sweep_param> grid;
  for (const index_t n : {index_t{0}, index_t{1}, index_t{2}, index_t{100},
                          index_t{1024}, index_t{33333}}) {
    for (const pstlb::test::profile backend : pstlb::test::all_profiles) {
      for (const index_t grain : {index_t{0}, index_t{1}, index_t{513}}) {
        grid.push_back({n, backend, grain});
      }
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, PropertySweep, ::testing::ValuesIn(sweep_grid()));

}  // namespace

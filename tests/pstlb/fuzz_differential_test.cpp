// Differential fuzzing: deterministic pseudo-random inputs and parameters,
// every algorithm checked against its std:: reference, across seeds and
// backends. Catches interaction bugs the targeted tests miss (odd sizes,
// adversarial duplicate densities, extreme predicates).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "backends/backend_registry.hpp"
#include "pstlb/pstlb.hpp"
#include "support/policies.hpp"

namespace {

using pstlb::index_t;
using pstlb::backends::backend_id;

struct rng {
  std::uint64_t state;
  explicit rng(std::uint64_t seed) : state(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  }
  index_t size(index_t max) { return static_cast<index_t>(next() % static_cast<std::uint64_t>(max)); }
  long long value(long long mod) { return static_cast<long long>(next() % static_cast<std::uint64_t>(mod)); }
};

class FuzzDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, backend_id>> {
 protected:
  template <class F>
  void with_policy(F&& f) const {
    f(pstlb::test::make_eager(std::get<1>(GetParam()), 4));
  }

  std::vector<long long> input(rng& r, index_t max_size = 30000,
                               long long mod = 1000) const {
    std::vector<long long> v(static_cast<std::size_t>(r.size(max_size) + 1));
    for (auto& x : v) { x = r.value(mod); }
    return v;
  }
};

TEST_P(FuzzDifferential, MapFamily) {
  rng r(std::get<0>(GetParam()) * 3 + 1);
  with_policy([&](const pstlb::exec::policy& policy) {
    for (int round = 0; round < 8; ++round) {
      auto v = input(r);
      auto expected = v;
      const long long addend = r.value(100);
      std::for_each(expected.begin(), expected.end(),
                    [addend](long long& x) { x = x * 3 + addend; });
      pstlb::for_each(policy, v.begin(), v.end(),
                      [addend](long long& x) { x = x * 3 + addend; });
      ASSERT_EQ(v, expected);

      std::vector<long long> out(v.size()), out_expected(v.size());
      std::transform(v.begin(), v.end(), out_expected.begin(),
                     [](long long x) { return x / 7; });
      pstlb::transform(policy, v.begin(), v.end(), out.begin(),
                       [](long long x) { return x / 7; });
      ASSERT_EQ(out, out_expected);
    }
  });
}

TEST_P(FuzzDifferential, ReduceFamily) {
  rng r(std::get<0>(GetParam()) * 5 + 2);
  with_policy([&](const pstlb::exec::policy& policy) {
    for (int round = 0; round < 8; ++round) {
      const auto v = input(r);
      ASSERT_EQ(pstlb::reduce(policy, v.begin(), v.end(), 0LL),
                std::reduce(v.begin(), v.end(), 0LL));
      const long long needle = r.value(1000);
      ASSERT_EQ(pstlb::count(policy, v.begin(), v.end(), needle),
                std::count(v.begin(), v.end(), needle));
      ASSERT_EQ(pstlb::find(policy, v.begin(), v.end(), needle) - v.begin(),
                std::find(v.begin(), v.end(), needle) - v.begin());
      ASSERT_EQ(*pstlb::min_element(policy, v.begin(), v.end()),
                *std::min_element(v.begin(), v.end()));
      ASSERT_EQ(*pstlb::max_element(policy, v.begin(), v.end()),
                *std::max_element(v.begin(), v.end()));
    }
  });
}

TEST_P(FuzzDifferential, ScanAndPackFamily) {
  rng r(std::get<0>(GetParam()) * 7 + 3);
  with_policy([&](const pstlb::exec::policy& policy) {
    for (int round = 0; round < 6; ++round) {
      const auto v = input(r);
      std::vector<long long> out(v.size()), expected(v.size());
      std::inclusive_scan(v.begin(), v.end(), expected.begin());
      pstlb::inclusive_scan(policy, v.begin(), v.end(), out.begin());
      ASSERT_EQ(out, expected);

      const long long pivot = r.value(1000);
      auto pred = [pivot](long long x) { return x < pivot; };
      std::vector<long long> packed(v.size(), -1), packed_expected(v.size(), -1);
      auto pe = std::copy_if(v.begin(), v.end(), packed_expected.begin(), pred);
      auto po = pstlb::copy_if(policy, v.begin(), v.end(), packed.begin(), pred);
      ASSERT_EQ(po - packed.begin(), pe - packed_expected.begin());
      ASSERT_EQ(packed, packed_expected);
    }
  });
}

TEST_P(FuzzDifferential, SortMergePartitionFamily) {
  rng r(std::get<0>(GetParam()) * 11 + 4);
  with_policy([&](const pstlb::exec::policy& policy) {
    for (int round = 0; round < 4; ++round) {
      // Adversarial duplicate density: mod in {2, 10, big}.
      const long long mods[]{2, 10, 100000};
      auto v = input(r, 20000, mods[static_cast<std::size_t>(round) % 3]);
      auto expected = v;
      std::sort(expected.begin(), expected.end());
      pstlb::sort(policy, v.begin(), v.end());
      ASSERT_EQ(v, expected);

      const long long pivot = r.value(1000);
      auto pred = [pivot](long long x) { return x % 997 < pivot; };
      auto v2 = expected;
      auto exp2 = expected;
      auto e = std::stable_partition(exp2.begin(), exp2.end(), pred);
      auto o = pstlb::stable_partition(policy, v2.begin(), v2.end(), pred);
      ASSERT_EQ(o - v2.begin(), e - exp2.begin());
      ASSERT_EQ(v2, exp2);

      // Merge two sorted halves of different sizes.
      const auto cut = expected.begin() + static_cast<index_t>(r.size(
                           static_cast<index_t>(expected.size()) + 1));
      std::vector<long long> lo(expected.begin(), cut), hi(cut, expected.end());
      std::sort(lo.begin(), lo.end());
      std::sort(hi.begin(), hi.end());
      std::vector<long long> merged(expected.size()), merged_expected(expected.size());
      std::merge(lo.begin(), lo.end(), hi.begin(), hi.end(), merged_expected.begin());
      pstlb::merge(policy, lo.begin(), lo.end(), hi.begin(), hi.end(), merged.begin());
      ASSERT_EQ(merged, merged_expected);
    }
  });
}

TEST_P(FuzzDifferential, SamplesortPipeline) {
  // Same differential checks on the samplesort pipeline, called directly:
  // pstlb::sort routes these small fuzz inputs to mergesort.
  rng r(std::get<0>(GetParam()) * 17 + 6);
  with_policy([&](const pstlb::exec::policy& policy) {
    const pstlb::backends::backend be(policy.backend, policy.threads);
    for (int round = 0; round < 4; ++round) {
      const long long mods[]{2, 10, 100000};
      auto v = input(r, 20000, mods[static_cast<std::size_t>(round) % 3]);
      auto expected = v;
      std::sort(expected.begin(), expected.end());
      ASSERT_TRUE(pstlb::detail::parallel_samplesort<false>(
          be, v.begin(), static_cast<index_t>(v.size()), std::less<>{}));
      ASSERT_EQ(v, expected);

      // Stability differential: pair each key with its original index and
      // compare against std::stable_sort on the key alone.
      auto w = input(r, 20000, 50);
      std::vector<std::pair<long long, index_t>> tagged(w.size());
      for (std::size_t i = 0; i < w.size(); ++i) {
        tagged[i] = {w[i], static_cast<index_t>(i)};
      }
      auto tagged_expected = tagged;
      auto by_key = [](const auto& a, const auto& b) { return a.first < b.first; };
      std::stable_sort(tagged_expected.begin(), tagged_expected.end(), by_key);
      ASSERT_TRUE(pstlb::detail::parallel_samplesort<true>(
          be, tagged.begin(), static_cast<index_t>(tagged.size()), by_key));
      ASSERT_EQ(tagged, tagged_expected);
    }
  });
}

TEST_P(FuzzDifferential, SetFamily) {
  rng r(std::get<0>(GetParam()) * 13 + 5);
  with_policy([&](const pstlb::exec::policy& policy) {
    for (int round = 0; round < 4; ++round) {
      auto a = input(r, 8000, 200);  // heavy duplicates
      auto b = input(r, 8000, 200);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      std::vector<long long> out(a.size() + b.size()), expected(a.size() + b.size());

      auto eu = std::set_union(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
      auto ou = pstlb::set_union(policy, a.begin(), a.end(), b.begin(), b.end(),
                                 out.begin());
      ASSERT_EQ(ou - out.begin(), eu - expected.begin());
      ASSERT_TRUE(std::equal(out.begin(), ou, expected.begin()));

      auto ei = std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                                      expected.begin());
      auto oi = pstlb::set_intersection(policy, a.begin(), a.end(), b.begin(), b.end(),
                                        out.begin());
      ASSERT_EQ(oi - out.begin(), ei - expected.begin());
      ASSERT_TRUE(std::equal(out.begin(), oi, expected.begin()));

      ASSERT_EQ(pstlb::includes(policy, a.begin(), a.end(), b.begin(), b.end()),
                std::includes(a.begin(), a.end(), b.begin(), b.end()));
    }
  });
}

std::vector<std::tuple<std::uint64_t, backend_id>> fuzz_grid() {
  std::vector<std::tuple<std::uint64_t, backend_id>> grid;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (backend_id id :
         {backend_id::fork_join, backend_id::omp_dynamic, backend_id::steal,
          backend_id::task_futures}) {
      grid.emplace_back(seed, id);
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential, ::testing::ValuesIn(fuzz_grid()));

}  // namespace

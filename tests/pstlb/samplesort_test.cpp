// Samplesort pipeline coverage: the splitter tree's ranks against
// std::upper_bound, the bucket kernel against std::sort/std::stable_sort,
// correctness on adversarial key distributions, the stability contract, the
// kernel's recursion and all-equal escape hatches, both bucket-id widths,
// pipeline selection, traffic accounting, and fault propagation during
// classification/scatter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "pstlb/detail/samplesort.hpp"
#include "pstlb/detail/sort_stats.hpp"
#include "pstlb/fault.hpp"
#include "pstlb/pstlb.hpp"
#include "support/policies.hpp"

namespace {

using pstlb::index_t;

/// The policy these tests sort with. Every input pstlb::sort gets here has
/// at least detail::sample_sort_min elements, so it takes samplesort; tests
/// of smaller inputs call detail::parallel_samplesort directly.
pstlb::exec::policy sample_policy(
    pstlb::backends::backend_id id = pstlb::backends::backend_id::steal,
    unsigned threads = pstlb::test::kTestThreads) {
  return pstlb::test::make_eager(id, threads);
}

std::vector<long long> zipf_input(index_t n, std::uint64_t seed) {
  // Duplicate-heavy, heavily skewed: rank r appears ~ n / r times.
  std::mt19937_64 rng(seed);
  std::vector<long long> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    const double u = std::uniform_real_distribution<double>(0.001, 1.0)(rng);
    x = static_cast<long long>(1.0 / u);  // ~Zipf(1) over [1, 1000]
  }
  return v;
}

/// Checks the splitter tree's rank of every key against std::upper_bound
/// over the same splitters, classifying the keys in blocks of each length
/// (some tails are shorter than the descent's 8-key interleave).
template <class T, class Compare>
void expect_upper_bound_ranks(const std::vector<T>& splitters,
                              std::vector<T> keys, Compare comp) {
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(splitters.size()));
  const pstlb::detail::splitter_tree<T> tree(splitters);
  std::vector<std::uint32_t> ids(512);
  const auto n = static_cast<index_t>(keys.size());
  for (index_t len : {1, 7, 8, 9, 511, 512}) {
    for (index_t b = 0; b < n; b += len) {
      const index_t m = std::min(len, n - b);
      tree.classify(keys.begin() + b, m, comp, ids.data());
      for (index_t j = 0; j < m; ++j) {
        const T& key = keys[static_cast<std::size_t>(b + j)];
        const auto expect =
            std::upper_bound(splitters.begin(), splitters.end(), key, comp) -
            splitters.begin();
        ASSERT_EQ(ids[static_cast<std::size_t>(j)], expect)
            << "n_s=" << splitters.size() << " len=" << len
            << " key=" << b + j;
      }
    }
  }
}

/// Trees that are complete (1, 3, 7, 15, 255, 4095 splitters) and padded.
const index_t kSplitterCounts[] = {1, 2, 3, 7, 8, 15, 16, 24, 25, 255, 256, 4095};

/// Splitters made from distinct values and from runs of 4 equal values (as
/// duplicate-heavy inputs produce), sorted under `comp`; the keys are every
/// splitter value and its two neighbours, so they fall below the first
/// splitter, on each one, between them and above the last.
template <class T, class Make, class Compare>
void check_tree_ranks(Make make, Compare comp) {
  for (index_t n_s : kSplitterCounts) {
    for (index_t run : {1, 4}) {
      std::vector<T> splitters;
      std::vector<T> keys;
      for (index_t i = 0; i < n_s; ++i) {
        const long long v = 2 * (i / run);
        splitters.push_back(make(v));
        for (long long d : {-1, 0, 1}) { keys.push_back(make(v + d)); }
      }
      std::sort(splitters.begin(), splitters.end(), comp);
      expect_upper_bound_ranks(splitters, keys, comp);
    }
  }
}

TEST(Samplesort, SplitterTreeRanksMatchUpperBound) {
  check_tree_ranks<long long>([](long long v) { return v; }, std::less<>{});
  check_tree_ranks<double>([](long long v) { return static_cast<double>(v); },
                           std::less<>{});
  // Descending splitters under std::greater<>.
  check_tree_ranks<long long>([](long long v) { return v; }, std::greater<>{});
  // A key-extracting lambda on a struct.
  struct rec {
    long long key = 0;
    int tag = 0;
  };
  check_tree_ranks<rec>(
      [](long long v) { return rec{v, static_cast<int>(v & 7)}; },
      [](const rec& a, const rec& b) { return a.key < b.key; });
  // Non-arithmetic keys: equal-width decimal strings order like their values.
  check_tree_ranks<std::string>(
      [](long long v) { return std::to_string(v + 2000000); }, std::less<>{});
}

TEST(Samplesort, SplitterTreeRanksInfinitiesAndMax) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double max = std::numeric_limits<double>::max();
  for (index_t n_s : kSplitterCounts) {
    // A finite top splitter, the type's maximum, and +inf, which data
    // holding infinities can sample.
    for (double top : {2.0 * static_cast<double>(n_s), max, inf}) {
      std::vector<double> splitters;
      std::vector<double> keys = {-inf, -max, max, inf};
      for (index_t i = 0; i < n_s; ++i) {
        const double v = 2.0 * static_cast<double>(i);
        splitters.push_back(v);
        for (double d : {-1.0, 0.0, 1.0}) { keys.push_back(v + d); }
      }
      splitters.back() = top;
      expect_upper_bound_ranks(splitters, keys, std::less<>{});
    }
  }
}

// --- the bucket kernel, called directly --------------------------------------

enum class key_kind { uniform, all_equal, two_valued, zipf, sorted, reverse, organ_pipe };
constexpr key_kind kKeyKinds[] = {key_kind::uniform,    key_kind::all_equal,
                                  key_kind::two_valued, key_kind::zipf,
                                  key_kind::sorted,     key_kind::reverse,
                                  key_kind::organ_pipe};

std::vector<long long> make_keys(key_kind kind, index_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<long long> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    auto& x = v[static_cast<std::size_t>(i)];
    switch (kind) {
      case key_kind::uniform: x = static_cast<long long>(rng() >> 1); break;
      case key_kind::all_equal: x = 7; break;
      case key_kind::two_valued: x = (rng() & 1) != 0 ? 3 : -3; break;
      case key_kind::zipf: break;
      case key_kind::sorted: x = i; break;
      case key_kind::reverse: x = n - i; break;
      case key_kind::organ_pipe: x = std::min(i, n - i); break;
    }
  }
  if (kind == key_kind::zipf) { v = zipf_input(n, seed); }
  return v;
}

/// Range sizes around the kernel's boundaries: the leaf size, every step of
/// the fan-out up to its saturation, the 2^12 buckets of a 2^16-key sort,
/// the pipeline's bucket cap, and a bucket four times over it, whose
/// sub-buckets outgrow a leaf and take the recursion.
std::vector<index_t> kernel_sizes() {
  using pstlb::detail::bucket_leaf;
  using pstlb::detail::bucket_leaf_max;
  const index_t cap = pstlb::detail::samplesort_params{}.bucket_cap;
  std::vector<index_t> sizes{0, 1, 2, bucket_leaf_max - 1, bucket_leaf_max,
                             bucket_leaf_max + 1};
  for (index_t f = 8; f <= pstlb::detail::bucket_fanout_max; f *= 2) {
    sizes.push_back(bucket_leaf * f);
    sizes.push_back(bucket_leaf * f + 1);
  }
  for (index_t n : {index_t{4096}, cap, cap + 1, 4 * cap}) { sizes.push_back(n); }
  return sizes;
}

/// Runs the bucket kernel from a copy of `keys` into a fresh range and
/// compares it with std::stable_sort (Stable) or std::sort. Without
/// stability, equal keys may come out in any order: the output must match
/// the std result key for key and hold the same elements, which `total`
/// (a strict total order on the whole element) checks.
template <bool Stable, class T, class Compare, class Total = Compare>
void expect_kernel_sorts(const std::vector<T>& keys, Compare comp,
                         Total total = Total{}) {
  std::vector<T> in = keys;
  std::vector<T> out(keys.size());
  std::vector<std::uint8_t> ids(keys.size());
  pstlb::detail::samplesort_bucket<Stable>(
      in.begin(), out.begin(), static_cast<index_t>(keys.size()), comp, ids.data());
  std::vector<T> expected = keys;
  if constexpr (Stable) {
    std::stable_sort(expected.begin(), expected.end(), comp);
    ASSERT_TRUE(out == expected) << "n=" << keys.size();
  } else {
    std::sort(expected.begin(), expected.end(), comp);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_FALSE(comp(out[i], expected[i]) || comp(expected[i], out[i]))
          << "n=" << keys.size() << " i=" << i;
    }
    std::sort(out.begin(), out.end(), total);
    std::sort(expected.begin(), expected.end(), total);
    ASSERT_TRUE(out == expected) << "n=" << keys.size();
  }
}

TEST(SamplesortKernel, FanOutStepsAndSaturates) {
  using pstlb::detail::bucket_fanout;
  using pstlb::detail::bucket_leaf;
  for (index_t f = 8; f <= pstlb::detail::bucket_fanout_max; f *= 2) {
    EXPECT_EQ(bucket_fanout(bucket_leaf * f), f);
    EXPECT_EQ(bucket_fanout(bucket_leaf * f + 1),
              std::min(2 * f, pstlb::detail::bucket_fanout_max));
  }
  EXPECT_EQ(bucket_fanout(index_t{1} << 30), pstlb::detail::bucket_fanout_max);
  static_assert(pstlb::detail::bucket_fanout_max <= 256, "sub-bucket ids are one byte");
}

TEST(SamplesortKernel, MatchesStdSortOnEveryKeyKindAndSize) {
  for (key_kind kind : kKeyKinds) {
    for (index_t n : kernel_sizes()) {
      SCOPED_TRACE(::testing::Message() << "kind=" << static_cast<int>(kind));
      const auto keys = make_keys(kind, n, static_cast<std::uint64_t>(n) + 3);
      expect_kernel_sorts<false>(keys, std::less<>{});
      expect_kernel_sorts<false>(keys, std::greater<>{});
    }
  }
}

TEST(SamplesortKernel, StableVariantMatchesStdStableSort) {
  // (key, index) pairs: the stable kernel must reproduce std::stable_sort
  // exactly, which fixes the order of every run of equal keys.
  auto by_key = [](const auto& a, const auto& b) { return a.first < b.first; };
  for (key_kind kind : kKeyKinds) {
    for (index_t n : kernel_sizes()) {
      SCOPED_TRACE(::testing::Message() << "kind=" << static_cast<int>(kind));
      const auto keys = make_keys(kind, n, static_cast<std::uint64_t>(n) + 5);
      std::vector<std::pair<long long, index_t>> tagged(keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        // Few distinct values, so every sub-bucket holds runs of equal keys.
        tagged[i] = {keys[i] % 61, static_cast<index_t>(i)};
      }
      expect_kernel_sorts<true>(tagged, by_key);
    }
  }
}

TEST(SamplesortKernel, KeyExtractingLambdaOnAStruct) {
  struct rec {
    long long key = 0;
    int tag = 0;
    bool operator==(const rec&) const = default;
  };
  auto by_key = [](const rec& a, const rec& b) { return a.key < b.key; };
  auto total = [](const rec& a, const rec& b) {
    return a.key != b.key ? a.key < b.key : a.tag < b.tag;
  };
  for (key_kind kind : kKeyKinds) {
    for (index_t n : kernel_sizes()) {
      SCOPED_TRACE(::testing::Message() << "kind=" << static_cast<int>(kind));
      const auto keys = make_keys(kind, n, static_cast<std::uint64_t>(n) + 7);
      std::vector<rec> recs(keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        recs[i] = {keys[i] % 1000, static_cast<int>(i)};
      }
      expect_kernel_sorts<false>(recs, by_key, total);
      expect_kernel_sorts<true>(recs, by_key);
    }
  }
}

TEST(SamplesortKernel, StringKeys) {
  const index_t cap = pstlb::detail::samplesort_params{}.bucket_cap;
  for (key_kind kind : {key_kind::uniform, key_kind::two_valued, key_kind::zipf,
                        key_kind::reverse}) {
    for (index_t n : {index_t{0}, index_t{2}, pstlb::detail::bucket_leaf_max + 1,
                      index_t{4097}, cap + 1}) {
      SCOPED_TRACE(::testing::Message() << "kind=" << static_cast<int>(kind));
      std::vector<std::string> keys;
      for (long long k : make_keys(kind, n, static_cast<std::uint64_t>(n) + 9)) {
        keys.push_back(std::to_string(k % 100000));
      }
      expect_kernel_sorts<false>(keys, std::less<>{});
    }
  }
}

TEST(SamplesortKernel, DoublesWithInfinitiesAndMax) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double max = std::numeric_limits<double>::max();
  std::mt19937_64 rng(71);
  for (index_t n : kernel_sizes()) {
    std::vector<double> keys(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = i % 8 == 3    ? inf
                : i % 8 == 5  ? -inf
                : i % 16 == 7 ? max
                              : static_cast<double>(rng() >> 11);
    }
    expect_kernel_sorts<false>(keys, std::less<>{});
    // Mostly +inf: the sample can come out all equal on a range that is not.
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i % 97 != 0) { keys[i] = inf; }
    }
    expect_kernel_sorts<false>(keys, std::less<>{});
  }
}

PSTLB_POLICY_TEST(SamplesortPolicies, SortsRandomInputOnEveryBackend) {
  pol = sample_policy(id);
  std::mt19937_64 rng(17);
  std::vector<long long> v(1 << 17);
  for (auto& x : v) { x = static_cast<long long>(rng()); }
  auto base = v;
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  pstlb::sort(pol, v.begin(), v.end());
  EXPECT_EQ(v, expected);

  // A non-default comparator: descending.
  v = base;
  std::sort(expected.begin(), expected.end(), std::greater<>{});
  pstlb::sort(pol, v.begin(), v.end(), std::greater<>{});
  EXPECT_EQ(v, expected);

  // Doubles with an eighth of them +inf and another eighth -inf, so the
  // outer splitters are infinite, and some max() keys just below +inf.
  // 5 * 2^16 keys make 20 buckets: 19 splitters in a padded 31-slot tree.
  std::vector<double> d(5 << 16);
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = i % 8 == 3    ? std::numeric_limits<double>::infinity()
           : i % 8 == 5  ? -std::numeric_limits<double>::infinity()
           : i % 16 == 7 ? std::numeric_limits<double>::max()
                         : static_cast<double>(rng() >> 11);
  }
  auto expected_d = d;
  std::sort(expected_d.begin(), expected_d.end());
  pstlb::sort(pol, d.begin(), d.end());
  EXPECT_EQ(d, expected_d);
}

PSTLB_POLICY_TEST(SamplesortPolicies, StableSortKeepsEqualKeyOrder) {
  struct kv {
    int key = 0;
    int seq = 0;
  };
  pol = sample_policy(id);
  std::mt19937_64 rng(23);
  std::vector<kv> v(1 << 16);
  for (int i = 0; i < static_cast<int>(v.size()); ++i) {
    v[static_cast<std::size_t>(i)] = {static_cast<int>(rng() % 37), i};
  }
  auto by_key = [](const kv& a, const kv& b) { return a.key < b.key; };
  pstlb::stable_sort(pol, v.begin(), v.end(), by_key);
  ASSERT_TRUE(std::is_sorted(v.begin(), v.end(), by_key));
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1].key == v[i].key) { ASSERT_LT(v[i - 1].seq, v[i].seq); }
  }
}

TEST(Samplesort, AllEqualKeys) {
  auto pol = sample_policy();
  std::vector<double> v(1 << 17, 42.0);
  pstlb::sort(pol, v.begin(), v.end());
  EXPECT_TRUE(std::all_of(v.begin(), v.end(), [](double x) { return x == 42.0; }));
}

TEST(Samplesort, PresortedAndReverse) {
  auto pol = sample_policy();
  std::vector<long long> v(1 << 17);
  std::iota(v.begin(), v.end(), 0LL);
  auto expected = v;
  pstlb::sort(pol, v.begin(), v.end());
  EXPECT_EQ(v, expected);

  std::reverse(v.begin(), v.end());
  pstlb::sort(pol, v.begin(), v.end());
  EXPECT_EQ(v, expected);
}

TEST(Samplesort, DuplicateHeavyZipf) {
  auto pol = sample_policy();
  auto v = zipf_input(1 << 17, 5);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  pstlb::sort(pol, v.begin(), v.end());
  EXPECT_EQ(v, expected);
}

TEST(Samplesort, TinyBucketCapRecordsTwoByteIds) {
  // A 32-element cap makes 2048 buckets at 2^16 keys, past the 256 a
  // one-byte id holds, so the classify and scatter passes run on two-byte
  // ids; Zipf keys also fill the heaviest values' buckets, which the bucket
  // kernel finds all equal and only moves.
  auto pol = sample_policy();
  const pstlb::backends::backend be(pol.backend, pol.threads);
  pstlb::detail::samplesort_params params;
  params.bucket_cap = 32;
  params.oversample = 4;
  const auto n = index_t{1} << 16;
  ASSERT_EQ(pstlb::detail::samplesort_id_bytes(pstlb::detail::samplesort_buckets(
                n, be.threads(), params.bucket_cap)),
            2u);
  auto v = zipf_input(n, 11);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  ASSERT_TRUE(pstlb::detail::parallel_samplesort<false>(be, v.begin(), n,
                                                        std::less<>{}, params));
  EXPECT_EQ(v, expected);
}

TEST(Samplesort, ThreadSweepRegression) {
  std::mt19937_64 rng(31);
  std::vector<long long> base(1 << 16);
  for (auto& x : base) { x = static_cast<long long>(rng() % 10000); }
  auto expected = base;
  std::sort(expected.begin(), expected.end());
  for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    auto v = base;
    auto pol = sample_policy(pstlb::backends::backend_id::steal, threads);
    pstlb::sort(pol, v.begin(), v.end());
    EXPECT_EQ(v, expected) << "threads=" << threads;
  }
}

TEST(Samplesort, BoundarySizes) {
  // Below sample_sort_min pstlb::sort takes mergesort, so the pipeline is
  // called directly.
  auto pol = sample_policy();
  const pstlb::backends::backend be(pol.backend, pol.threads);
  for (index_t n : pstlb::test::test_sizes()) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(n) + 1);
    std::vector<long long> v(static_cast<std::size_t>(n));
    for (auto& x : v) { x = static_cast<long long>(rng() % 100); }
    auto expected = v;
    std::sort(expected.begin(), expected.end());
    ASSERT_TRUE(pstlb::detail::parallel_samplesort<false>(be, v.begin(), n,
                                                          std::less<>{}));
    EXPECT_EQ(v, expected) << "n=" << n;
  }
}

TEST(Samplesort, AutomaticThresholdRoutesBySize) {
  auto pol = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
  constexpr index_t threshold = pstlb::detail::sample_sort_min;
  static_assert(threshold == index_t{1} << 16);
  std::mt19937_64 rng(43);
  std::vector<double> v(static_cast<std::size_t>(threshold));
  for (auto& x : v) { x = static_cast<double>(rng() % 1000); }

  pstlb::sort(pol, v.begin(), v.end());  // n == sample_sort_min -> samplesort
  EXPECT_STREQ(pstlb::detail::last_sort_traffic().algorithm, "sample");

  std::vector<double> small(v.begin(), v.begin() + threshold - 1);
  std::shuffle(small.begin(), small.end(), rng);
  pstlb::sort(pol, small.begin(), small.end());
  EXPECT_STREQ(pstlb::detail::last_sort_traffic().algorithm, "merge");
  EXPECT_TRUE(std::is_sorted(small.begin(), small.end()));
}

TEST(Samplesort, TrafficSnapshotShowsConstantPasses) {
  auto pol = sample_policy();
  std::mt19937_64 rng(47);
  std::vector<double> v(1 << 18);
  for (auto& x : v) { x = static_cast<double>(rng()); }
  pstlb::sort(pol, v.begin(), v.end());
  const auto& st = pstlb::detail::last_sort_traffic();
  EXPECT_STREQ(st.algorithm, "sample");
  EXPECT_GT(st.input_bytes, 0.0);
  // ~3 read passes (classify, scatter, bucket load) + the scatter's read of
  // the bucket ids + the sample reads.
  EXPECT_GE(st.read_passes(), 2.9);
  EXPECT_LE(st.read_passes(), 3.5);
  // Exactly 2 element write passes (scatter, bucket kernel) + the classify
  // pass's write of one id per key.
  const double id_bytes = static_cast<double>(
      pstlb::detail::samplesort_id_bytes(pstlb::detail::samplesort_buckets(
          static_cast<index_t>(v.size()), pol.threads,
          pstlb::detail::samplesort_params{}.bucket_cap)));
  EXPECT_NEAR(st.write_passes(), 2.0 + id_bytes / sizeof(double), 0.01);

  // Mergesort's pass count grows with the round count instead.
  const pstlb::backends::backend be(pol.backend, pol.threads);
  std::shuffle(v.begin(), v.end(), rng);
  pstlb::detail::parallel_mergesort<false>(be, v.begin(),
                                           static_cast<index_t>(v.size()),
                                           std::less<>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  const auto& mt = pstlb::detail::last_sort_traffic();
  EXPECT_STREQ(mt.algorithm, "merge");
  EXPECT_GT(mt.merge_round_count, 0);
  EXPECT_NEAR(mt.read_passes(), 1.0 + mt.merge_round_count, 0.01);
}

TEST(Samplesort, DeterministicSplitterDraws) {
  EXPECT_EQ(pstlb::detail::samplesort_draw(7),
            pstlb::detail::samplesort_draw(7));
  EXPECT_NE(pstlb::detail::samplesort_draw(7),
            pstlb::detail::samplesort_draw(8));
}

TEST(Samplesort, BucketCountBounds) {
  using pstlb::detail::samplesort_buckets;
  // Small n: never degenerate buckets.
  EXPECT_LE(samplesort_buckets(64, 8, 1 << 15), 64 / 32);
  // Large n with a small cap: capped at 4096.
  EXPECT_EQ(samplesort_buckets(1 << 24, 8, 64), 4096);
  // Always enough buckets to balance the given threads (n permitting).
  EXPECT_GE(samplesort_buckets(1 << 20, 16, 1 << 15), 16 * 4);
}

PSTLB_POLICY_TEST(SamplesortPolicies, InjectedFaultPropagatesExactlyOneException) {
  // throw:1 fires in the first classification chunk on every worker; the
  // pool's cancellation protocol must surface exactly one injected_fault and
  // leave no peer stranded (the test completing at all proves the latter).
  pol = sample_policy(id);
  std::vector<double> v(1 << 16);
  std::mt19937_64 rng(53);
  for (auto& x : v) { x = static_cast<double>(rng()); }
  pstlb::fault::set("throw:1");
  int caught = 0;
  try {
    pstlb::sort(pol, v.begin(), v.end());
  } catch (const pstlb::fault::injected_fault&) {
    ++caught;
  }
  pstlb::fault::set(pstlb::fault::spec{});
  EXPECT_EQ(caught, 1);

  // The array still holds a permutation-or-original multiset? No: sort gives
  // no guarantee after a throw. What must still work is a clean retry.
  pstlb::sort(pol, v.begin(), v.end());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

PSTLB_POLICY_TEST(SamplesortPolicies, LowProbabilityFaultStillSingleException) {
  // throw:0.05 lands mid-pipeline (classification on some chunks, scatter or
  // bucket sort on others, depending on the hash) — whichever phase throws,
  // at most one exception crosses the API per call.
  pol = sample_policy(id);
  pstlb::fault::spec s = pstlb::fault::parse("throw:0.05", 99);
  std::vector<double> v(1 << 16);
  std::mt19937_64 rng(59);
  for (auto& x : v) { x = static_cast<double>(rng()); }
  for (int attempt = 0; attempt < 4; ++attempt) {
    pstlb::fault::set(s);
    try {
      pstlb::sort(pol, v.begin(), v.end());
    } catch (const pstlb::fault::injected_fault&) {
    }
    pstlb::fault::set(pstlb::fault::spec{});
  }
  pstlb::sort(pol, v.begin(), v.end());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

}  // namespace

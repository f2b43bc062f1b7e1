// Differential tests for the par_unseq SIMD leaf layer (DESIGN.md §18).
//
// Every vectorized kernel is checked against the scalar reference table at
// every ISA level the host can actually run, across sizes that straddle
// vector-width boundaries and misaligned base pointers. Above the kernel
// layer, the par_unseq / unseq policies are checked against seq at the
// algorithm level, including the documented float-reassociation contract
// and the PSTLB_SIMD=scalar bit-identity guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "pstlb/detail/samplesort.hpp"
#include "pstlb/detail/simd/isa.hpp"
#include "pstlb/detail/simd/kernels.hpp"
#include "pstlb/detail/simd/leaf.hpp"
#include "pstlb/pstlb.hpp"

namespace {

using pstlb::index_t;
namespace simd = pstlb::simd;

/// Restores the active ISA level on scope exit so tests can force levels
/// without leaking state into each other.
struct isa_guard {
  simd::isa saved = simd::active();
  ~isa_guard() { simd::force(saved); }
};

std::vector<simd::isa> runnable_vector_levels() {
  isa_guard guard;
  std::vector<simd::isa> out;
  for (int l = 1; l < simd::isa_count; ++l) {
    const auto level = static_cast<simd::isa>(l);
    if (simd::force(level) == level) { out.push_back(level); }
  }
  return out;
}

/// Sizes straddling the lane-count boundaries of every level (f64 lanes are
/// 2/4/8; f32 and i32 reach 16) plus the blocked-kernel unroll width.
std::vector<index_t> boundary_sizes() {
  std::vector<index_t> sizes = {0, 1, 2, 3};
  for (index_t lanes : {2, 4, 8, 16}) {
    for (index_t mult : {1, 2, 4}) {
      const index_t base = lanes * mult;
      sizes.push_back(base - 1);
      sizes.push_back(base);
      sizes.push_back(base + 1);
    }
  }
  sizes.insert(sizes.end(), {63, 64, 65, 127, 128, 129, 1000, 1023, 1024, 1025});
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

template <class T>
std::vector<T> pattern_data(index_t n, index_t pad) {
  std::vector<T> v(static_cast<std::size_t>(n + pad));
  std::uint64_t state = 0x243F6A8885A308D3ull;
  for (auto& x : v) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    // Small magnitudes so float sums stay exactly representable-ish and
    // int products do not overflow.
    x = static_cast<T>(static_cast<long long>(state >> 52) - 2048);
  }
  return v;
}

/// Runs `body(ref_set, vec_set, level)` for each covered element type at
/// each runnable vector level. Misalignment is the caller's business.
template <class T, class Body>
void for_each_level(Body body) {
  const simd::kernel_table& ref_table = simd::scalar_table();
  const simd::kernel_set<T>* ref = simd::detail::table_member<T>::get(ref_table);
  ASSERT_NE(ref, nullptr);
  ASSERT_TRUE(ref_table.compiled);
  for (simd::isa level : runnable_vector_levels()) {
    const simd::kernel_set<T>* vec = simd::set_for<T>(level);
    if (vec == nullptr) { continue; }  // level not compiled for this binary
    body(*ref, *vec, level);
  }
}

template <class T>
void check_reduce_family() {
  for_each_level<T>([](const simd::kernel_set<T>& ref,
                       const simd::kernel_set<T>& vec, simd::isa level) {
    for (index_t n : boundary_sizes()) {
      auto data = pattern_data<T>(n, 3);
      for (index_t off : {index_t{0}, index_t{1}, index_t{3}}) {
        const T* p = data.data() + off;
        SCOPED_TRACE("level=" + std::string(simd::name(level)) +
                     " n=" + std::to_string(n) + " off=" + std::to_string(off));
        if constexpr (std::is_floating_point_v<T>) {
          // Multi-accumulator sums may reassociate: compare within a
          // tolerance scaled to the magnitude of the terms.
          const double expect = static_cast<double>(ref.reduce_sum(p, n));
          const double got = static_cast<double>(vec.reduce_sum(p, n));
          EXPECT_NEAR(got, expect, 1e-6 * (std::abs(expect) + n + 1));
        } else {
          EXPECT_EQ(vec.reduce_sum(p, n), ref.reduce_sum(p, n));
        }
        if (n > 0) {
          EXPECT_EQ(vec.reduce_min(p, n), ref.reduce_min(p, n));
          EXPECT_EQ(vec.reduce_max(p, n), ref.reduce_max(p, n));
          EXPECT_EQ(vec.min_index(p, n), ref.min_index(p, n));
          EXPECT_EQ(vec.max_index(p, n), ref.max_index(p, n));
        }
      }
    }
  });
}

TEST(SimdKernels, ReduceFamilyMatchesScalarAllTypes) {
  check_reduce_family<float>();
  check_reduce_family<double>();
  check_reduce_family<std::int32_t>();
  check_reduce_family<std::int64_t>();
  check_reduce_family<std::uint32_t>();
  check_reduce_family<std::uint64_t>();
}

template <class T>
void check_find_count() {
  for_each_level<T>([](const simd::kernel_set<T>& ref,
                       const simd::kernel_set<T>& vec, simd::isa level) {
    for (index_t n : boundary_sizes()) {
      auto data = pattern_data<T>(n, 3);
      // Plant a needle at several positions, including vector boundaries.
      std::vector<index_t> positions = {0, n / 2, n - 1, n - 7, 64};
      const T needle = static_cast<T>(123456);
      for (index_t pos : positions) {
        auto copy = data;
        if (pos >= 0 && pos < n) { copy[static_cast<std::size_t>(pos)] = needle; }
        for (index_t off : {index_t{0}, index_t{1}}) {
          const T* p = copy.data() + off;
          SCOPED_TRACE("level=" + std::string(simd::name(level)) +
                       " n=" + std::to_string(n) + " pos=" + std::to_string(pos) +
                       " off=" + std::to_string(off));
          EXPECT_EQ(vec.find_eq(p, n, needle), ref.find_eq(p, n, needle));
          EXPECT_EQ(vec.count_eq(p, n, needle), ref.count_eq(p, n, needle));
          // Absent value: find returns n, count returns 0, both sides.
          const T absent = static_cast<T>(654321);
          EXPECT_EQ(vec.find_eq(p, n, absent), ref.find_eq(p, n, absent));
          EXPECT_EQ(vec.count_eq(p, n, absent), ref.count_eq(p, n, absent));
        }
      }
      // Duplicate-heavy input exercises count accumulation.
      std::fill(data.begin(), data.end(), static_cast<T>(7));
      EXPECT_EQ(vec.count_eq(data.data(), n, static_cast<T>(7)), n);
      EXPECT_EQ(vec.find_eq(data.data(), n, static_cast<T>(7)), n > 0 ? 0 : n);
    }
  });
}

TEST(SimdKernels, FindAndCountMatchScalarAllTypes) {
  check_find_count<float>();
  check_find_count<double>();
  check_find_count<std::int32_t>();
  check_find_count<std::int64_t>();
  check_find_count<std::uint32_t>();
  check_find_count<std::uint64_t>();
}

template <class T>
void check_transforms() {
  for_each_level<T>([](const simd::kernel_set<T>& ref,
                       const simd::kernel_set<T>& vec, simd::isa level) {
    for (index_t n : boundary_sizes()) {
      auto a = pattern_data<T>(n, 3);
      auto b = pattern_data<T>(n, 3);
      std::vector<T> out_ref(static_cast<std::size_t>(n + 3));
      std::vector<T> out_vec(static_cast<std::size_t>(n + 3));
      for (index_t off : {index_t{0}, index_t{1}}) {
        SCOPED_TRACE("level=" + std::string(simd::name(level)) +
                     " n=" + std::to_string(n) + " off=" + std::to_string(off));
        const T* pa = a.data() + off;
        const T* pb = b.data() + off;
        ref.add(pa, pb, out_ref.data(), n);
        vec.add(pa, pb, out_vec.data(), n);
        EXPECT_EQ(out_ref, out_vec);
        ref.sub(pa, pb, out_ref.data(), n);
        vec.sub(pa, pb, out_vec.data(), n);
        EXPECT_EQ(out_ref, out_vec);
        ref.mul(pa, pb, out_ref.data(), n);
        vec.mul(pa, pb, out_vec.data(), n);
        EXPECT_EQ(out_ref, out_vec);
        ref.negate(pa, out_ref.data(), n);
        vec.negate(pa, out_vec.data(), n);
        EXPECT_EQ(out_ref, out_vec);
        if constexpr (std::is_floating_point_v<T>) {
          const double expect = static_cast<double>(ref.dot(pa, pb, n));
          const double got = static_cast<double>(vec.dot(pa, pb, n));
          EXPECT_NEAR(got, expect, 1e-4 * (std::abs(expect) + n + 1));
        } else {
          EXPECT_EQ(vec.dot(pa, pb, n), ref.dot(pa, pb, n));
        }
      }
      // In-place aliasing: out == a must behave like a fresh destination.
      auto alias_ref = a;
      auto alias_vec = a;
      ref.add(alias_ref.data(), b.data(), alias_ref.data(), n);
      vec.add(alias_vec.data(), b.data(), alias_vec.data(), n);
      EXPECT_EQ(alias_ref, alias_vec);
    }
  });
}

TEST(SimdKernels, TransformsMatchScalarAllTypes) {
  check_transforms<float>();
  check_transforms<double>();
  check_transforms<std::int32_t>();
  check_transforms<std::int64_t>();
  check_transforms<std::uint32_t>();
  check_transforms<std::uint64_t>();
}

template <class T>
void check_classify() {
  // Top-splitter values that stress the Eytzinger padding: the type's
  // maximum and, for floats, +infinity — legal data samplesort can sample
  // as a splitter, which the padding must still sort at-or-above.
  std::vector<T> tops = {std::numeric_limits<T>::max()};
  if constexpr (std::numeric_limits<T>::has_infinity) {
    tops.push_back(std::numeric_limits<T>::infinity());
  }
  for (simd::isa level : runnable_vector_levels()) {
    const simd::kernel_set<T>* ks = simd::set_for<T>(level);
    if (ks == nullptr || ks->classify == nullptr) { continue; }
    for (index_t n_s : {index_t{1}, index_t{2}, index_t{3}, index_t{15},
                        index_t{16}, index_t{24}, index_t{25}, index_t{31},
                        index_t{33}, index_t{100}, index_t{1000}}) {
      for (T top : tops) {
        std::vector<T> splitters(static_cast<std::size_t>(n_s));
        for (index_t i = 0; i < n_s; ++i) {
          splitters[static_cast<std::size_t>(i)] = static_cast<T>(i * 5);
        }
        if (n_s > 2) { splitters.back() = top; }
        const pstlb::detail::splitter_tree<T> tree(splitters);
        const index_t n = 257;
        auto keys = pattern_data<T>(n, 0);
        // Also probe exact splitter values (upper_bound ties).
        for (index_t i = 0; i < std::min(n, n_s); ++i) {
          keys[static_cast<std::size_t>(2 * i % n)] =
              splitters[static_cast<std::size_t>(i)];
        }
        // And the extreme keys: max() sits in [max, inf) where a
        // finite-padded float tree would misrank against an inf splitter.
        keys[0] = std::numeric_limits<T>::max();
        if constexpr (std::numeric_limits<T>::has_infinity) {
          keys[1] = std::numeric_limits<T>::infinity();
        }
        std::vector<std::uint32_t> got(static_cast<std::size_t>(n));
        ks->classify(keys.data(), n, splitters.data(), n_s, tree.data(),
                     tree.levels(), got.data());
        for (index_t i = 0; i < n; ++i) {
          const auto expect = static_cast<std::uint32_t>(
              std::upper_bound(splitters.begin(), splitters.end(),
                               keys[static_cast<std::size_t>(i)]) -
              splitters.begin());
          ASSERT_EQ(got[static_cast<std::size_t>(i)], expect)
              << "level=" << simd::name(level) << " n_s=" << n_s
              << " top=" << +top << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernels, ClassifyMatchesUpperBound) {
  check_classify<float>();
  check_classify<double>();
  check_classify<std::int32_t>();
  check_classify<std::int64_t>();
  check_classify<std::uint32_t>();
  check_classify<std::uint64_t>();
}

// ---- policy-level checks -------------------------------------------------

TEST(SimdPolicy, LeafForGatesOnPolicyAndIsa) {
  isa_guard guard;
  // Policy did not ask: always null.
  EXPECT_EQ((simd::leaf_for<double, const double*>(false)), nullptr);
  // Scalar active level: null, so the classic leaf runs (bit identity).
  if (simd::force(simd::isa::scalar) == simd::isa::scalar) {
    EXPECT_EQ((simd::leaf_for<double, const double*>(true)), nullptr);
  }
  // Non-contiguous iterators can never vectorize.
  EXPECT_EQ((simd::leaf_for<double, std::vector<bool>::iterator>(true)),
            nullptr);
}

TEST(SimdPolicy, ParUnseqMatchesSeqIntegers) {
  isa_guard guard;
  for (simd::isa level : runnable_vector_levels()) {
    if (simd::force(level) != level) { continue; }
    for (index_t n : {index_t{0}, index_t{1}, index_t{1023}, index_t{65536}}) {
      std::vector<std::int64_t> v(static_cast<std::size_t>(n));
      std::iota(v.begin(), v.end(), -37);
      SCOPED_TRACE("level=" + std::string(simd::name(level)) +
                   " n=" + std::to_string(n));
      EXPECT_EQ(pstlb::reduce(pstlb::execution::par_unseq, v.begin(), v.end()),
                pstlb::reduce(pstlb::execution::seq, v.begin(), v.end()));
      EXPECT_EQ(
          pstlb::count(pstlb::execution::par_unseq, v.begin(), v.end(), 100),
          pstlb::count(pstlb::execution::seq, v.begin(), v.end(), 100));
      EXPECT_EQ(
          pstlb::find(pstlb::execution::par_unseq, v.begin(), v.end(), 200) -
              v.begin(),
          pstlb::find(pstlb::execution::seq, v.begin(), v.end(), 200) -
              v.begin());
      if (n > 0) {
        EXPECT_EQ(pstlb::min_element(pstlb::execution::par_unseq, v.begin(),
                                     v.end()) -
                      v.begin(),
                  pstlb::min_element(pstlb::execution::seq, v.begin(), v.end()) -
                      v.begin());
        EXPECT_EQ(pstlb::max_element(pstlb::execution::par_unseq, v.begin(),
                                     v.end()) -
                      v.begin(),
                  pstlb::max_element(pstlb::execution::seq, v.begin(), v.end()) -
                      v.begin());
      }
      std::vector<std::int64_t> b(v.rbegin(), v.rend());
      std::vector<std::int64_t> out_par(v.size());
      std::vector<std::int64_t> out_seq(v.size());
      pstlb::transform(pstlb::execution::par_unseq, v.begin(), v.end(),
                       b.begin(), out_par.begin(), std::plus<>{});
      pstlb::transform(pstlb::execution::seq, v.begin(), v.end(), b.begin(),
                       out_seq.begin(), std::plus<>{});
      EXPECT_EQ(out_par, out_seq);
      pstlb::transform(pstlb::execution::par_unseq, v.begin(), v.end(),
                       out_par.begin(), std::negate<>{});
      pstlb::transform(pstlb::execution::seq, v.begin(), v.end(),
                       out_seq.begin(), std::negate<>{});
      EXPECT_EQ(out_par, out_seq);
      EXPECT_EQ(pstlb::transform_reduce(pstlb::execution::par_unseq, v.begin(),
                                        v.end(), b.begin(), std::int64_t{0}),
                pstlb::transform_reduce(pstlb::execution::seq, v.begin(),
                                        v.end(), b.begin(), std::int64_t{0}));
    }
  }
}

TEST(SimdPolicy, ParUnseqFloatsWithinReassociationTolerance) {
  isa_guard guard;
  // The documented par_unseq contract: FP sums may reassociate relative to
  // the seq left fold, so results match within accumulation tolerance, not
  // bit-for-bit. This test is the contract's executable documentation.
  const index_t n = 1 << 18;
  std::vector<double> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] =
        (static_cast<double>(i % 1009) - 504.0) * 0.125;
  }
  const double seq_sum = pstlb::reduce(pstlb::execution::seq, v.begin(), v.end());
  for (simd::isa level : runnable_vector_levels()) {
    if (simd::force(level) != level) { continue; }
    const double par_sum =
        pstlb::reduce(pstlb::execution::par_unseq, v.begin(), v.end());
    EXPECT_NEAR(par_sum, seq_sum, 1e-6 * (std::abs(seq_sum) + n));
  }
}

TEST(SimdPolicy, ForcedScalarIsBitIdenticalToSeq) {
  isa_guard guard;
  if (simd::force(simd::isa::scalar) != simd::isa::scalar) {
    GTEST_SKIP() << "cannot force scalar on this build";
  }
  // With the scalar level forced, par_unseq runs the classic leaves, so
  // even float results are bit-identical to a pre-SIMD build's par path.
  const index_t n = 100000;
  std::vector<float> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = static_cast<float>(i % 97) * 0.25f;
  }
  const float unseq_sum =
      pstlb::reduce(pstlb::execution::unseq, v.begin(), v.end());
  const float seq_sum = pstlb::reduce(pstlb::execution::seq, v.begin(), v.end());
  EXPECT_EQ(unseq_sum, seq_sum);  // bitwise: same left fold
  std::vector<float> out_a(v.size());
  std::vector<float> out_b(v.size());
  pstlb::transform(pstlb::execution::par_unseq, v.begin(), v.end(),
                   out_a.begin(), std::negate<>{});
  pstlb::transform(pstlb::execution::par, v.begin(), v.end(), out_b.begin(),
                   std::negate<>{});
  EXPECT_EQ(out_a, out_b);
}

TEST(SimdPolicy, SamplesortParUnseqSorts) {
  isa_guard guard;
  for (simd::isa level : runnable_vector_levels()) {
    if (simd::force(level) != level) { continue; }
    for (index_t n : {index_t{0}, index_t{1}, index_t{1000}, index_t{100000}}) {
      std::vector<double> v(static_cast<std::size_t>(n));
      std::uint64_t state = 99 + static_cast<std::uint64_t>(level);
      for (auto& x : v) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        x = static_cast<double>(state >> 40);
      }
      // Sprinkle infinities: legal float input that may be sampled as a
      // splitter (regression: finite Eytzinger padding misranked keys at
      // or above the type maximum).
      for (std::size_t i = 7; i < v.size(); i += 97) {
        v[i] = (i % 2) != 0 ? std::numeric_limits<double>::infinity()
                            : -std::numeric_limits<double>::infinity();
      }
      auto expect = v;
      std::sort(expect.begin(), expect.end());
      pstlb::sort(pstlb::execution::par_unseq, v.begin(), v.end());
      EXPECT_EQ(v, expect) << "level=" << simd::name(level) << " n=" << n;
    }
  }
}

TEST(SimdPolicy, DispatchReportAndCounters) {
  isa_guard guard;
  for (simd::isa level : runnable_vector_levels()) {
    if (simd::force(level) != level) { continue; }
    const std::uint64_t before = simd::leaf_invocations(level);
    std::vector<std::int32_t> v(4096, 1);
    (void)pstlb::reduce(pstlb::execution::unseq, v.begin(), v.end());
    EXPECT_GT(simd::leaf_invocations(level), before)
        << "vector leaf did not run at " << simd::name(level);
  }
  simd::report_selection();  // must not crash; CI greps its output format
}

TEST(SimdPolicy, UnknownFunctorsAndTypesFallBack) {
  isa_guard guard;
  // A lambda computing plus must NOT vectorize (we cannot see inside it),
  // but must still give the right answer through the classic leaf.
  std::vector<std::int64_t> v(10000);
  std::iota(v.begin(), v.end(), 0);
  const auto lam = [](std::int64_t a, std::int64_t b) { return a + b; };
  EXPECT_EQ(pstlb::reduce(pstlb::execution::par_unseq, v.begin(), v.end(),
                          std::int64_t{0}, lam),
            pstlb::reduce(pstlb::execution::seq, v.begin(), v.end(),
                          std::int64_t{0}, lam));
  // short is outside the closed element set.
  std::vector<short> s(10000, short{1});
  EXPECT_EQ(pstlb::reduce(pstlb::execution::par_unseq, s.begin(), s.end(),
                          0, std::plus<>{}),
            10000);
}

}  // namespace

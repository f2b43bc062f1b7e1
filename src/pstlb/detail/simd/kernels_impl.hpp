// Kernel templates shared by every ISA translation unit (DESIGN.md §18).
//
// NOT a normal header: each of kernels_{sse2,avx2,avx512}.cpp defines
// PSTLB_SIMD_VBYTES (the vector register width in bytes) and includes this
// file exactly once. Everything lands in an anonymous namespace, so the same
// template bodies compiled under different -m flag sets never collide at
// link time (the ODR trap of mixing -mavx2 objects with baseline ones).
//
// The portable vector wrapper is GCC's generic vector extension
// (__attribute__((vector_size))) — no std::experimental::simd, no
// intrinsics. Loads and stores go through __builtin_memcpy, which the
// compiler folds to unaligned vector moves, so misaligned bases are always
// correct. Tails shorter than one vector run scalar; every kernel is exact
// for any n >= 0 including n < lanes.
#ifndef PSTLB_SIMD_VBYTES
#error "kernels_impl.hpp must be included with PSTLB_SIMD_VBYTES defined"
#endif

#include <cstdint>
#include <limits>

#include "pstlb/detail/simd/kernels.hpp"

namespace pstlb::simd {
namespace {
namespace impl {

template <class T>
struct pack {
  static constexpr index_t lanes =
      static_cast<index_t>(PSTLB_SIMD_VBYTES / sizeof(T));
  typedef T vec __attribute__((vector_size(PSTLB_SIMD_VBYTES)));
  // Comparisons on vec yield a signed-integer mask vector of the same
  // width: -1 (all bits) in matching lanes, 0 elsewhere.
  using mask = decltype(vec{} == vec{});

  static vec load(const T* p) {
    vec v;
    __builtin_memcpy(&v, p, sizeof(vec));
    return v;
  }
  static void store(T* p, vec v) { __builtin_memcpy(p, &v, sizeof(vec)); }
  static vec broadcast(T x) {
    vec v;
    for (index_t k = 0; k < lanes; ++k) { v[k] = x; }
    return v;
  }
  static T hsum(vec v) {
    T total = v[0];
    for (index_t k = 1; k < lanes; ++k) { total += v[k]; }
    return total;
  }
  static bool any(mask m) {
    auto bits = m[0];
    for (index_t k = 1; k < lanes; ++k) { bits |= m[k]; }
    return bits != 0;
  }
  static mask zero_mask() {
    const vec z = broadcast(T(0));
    return z != z;  // all-false for every lane, including float lanes
  }
};

// --- reductions --------------------------------------------------------------

/// Four independent accumulators break the FP-add dependency chain (the
/// scalar loop is latency-bound at ~1 add / 4 cycles; this is the actual
/// source of the single-thread reduce speedup, on top of the lane width).
/// FP results may therefore reassociate relative to a left fold — the
/// documented par_unseq contract.
template <class T>
T reduce_sum_k(const T* p, index_t n) {
  using P = pack<T>;
  constexpr index_t L = P::lanes;
  T total = T(0);
  index_t i = 0;
  if (n >= L) {
    typename P::vec a0 = P::broadcast(T(0));
    typename P::vec a1 = a0;
    typename P::vec a2 = a0;
    typename P::vec a3 = a0;
    for (; i + 4 * L <= n; i += 4 * L) {
      a0 += P::load(p + i);
      a1 += P::load(p + i + L);
      a2 += P::load(p + i + 2 * L);
      a3 += P::load(p + i + 3 * L);
    }
    for (; i + L <= n; i += L) { a0 += P::load(p + i); }
    a0 += a1;
    a2 += a3;
    a0 += a2;
    total = P::hsum(a0);
  }
  for (; i < n; ++i) { total += p[i]; }
  return total;
}

template <class T>
T reduce_min_k(const T* p, index_t n) {
  using P = pack<T>;
  constexpr index_t L = P::lanes;
  T best;
  index_t i;
  if (n >= 2 * L) {
    typename P::vec m0 = P::load(p);
    typename P::vec m1 = P::load(p + L);
    i = 2 * L;
    for (; i + 2 * L <= n; i += 2 * L) {
      const typename P::vec v = P::load(p + i);
      const typename P::vec w = P::load(p + i + L);
      m0 = v < m0 ? v : m0;
      m1 = w < m1 ? w : m1;
    }
    for (; i + L <= n; i += L) {
      const typename P::vec v = P::load(p + i);
      m0 = v < m0 ? v : m0;
    }
    m0 = m1 < m0 ? m1 : m0;
    best = m0[0];
    for (index_t k = 1; k < L; ++k) { best = m0[k] < best ? m0[k] : best; }
  } else {
    best = p[0];
    i = 1;
  }
  for (; i < n; ++i) { best = p[i] < best ? p[i] : best; }
  return best;
}

template <class T>
T reduce_max_k(const T* p, index_t n) {
  using P = pack<T>;
  constexpr index_t L = P::lanes;
  T best;
  index_t i;
  if (n >= 2 * L) {
    typename P::vec m0 = P::load(p);
    typename P::vec m1 = P::load(p + L);
    i = 2 * L;
    for (; i + 2 * L <= n; i += 2 * L) {
      const typename P::vec v = P::load(p + i);
      const typename P::vec w = P::load(p + i + L);
      m0 = v > m0 ? v : m0;
      m1 = w > m1 ? w : m1;
    }
    for (; i + L <= n; i += L) {
      const typename P::vec v = P::load(p + i);
      m0 = v > m0 ? v : m0;
    }
    m0 = m1 > m0 ? m1 : m0;
    best = m0[0];
    for (index_t k = 1; k < L; ++k) { best = m0[k] > best ? m0[k] : best; }
  } else {
    best = p[0];
    i = 1;
  }
  for (; i < n; ++i) { best = p[i] > best ? p[i] : best; }
  return best;
}

// --- searches ----------------------------------------------------------------

/// Branchless block probe: compare four vectors, OR the masks, test once —
/// the movemask-style early exit every 4*lanes elements — then recover the
/// exact first hit scalar inside the hitting block.
template <class T>
index_t find_eq_k(const T* p, index_t n, T v) {
  using P = pack<T>;
  constexpr index_t L = P::lanes;
  const typename P::vec needle = P::broadcast(v);
  index_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    const typename P::mask m0 = P::load(p + i) == needle;
    const typename P::mask m1 = P::load(p + i + L) == needle;
    const typename P::mask m2 = P::load(p + i + 2 * L) == needle;
    const typename P::mask m3 = P::load(p + i + 3 * L) == needle;
    if (P::any((m0 | m1) | (m2 | m3))) {
      for (index_t j = i;; ++j) {
        if (p[j] == v) { return j; }
      }
    }
  }
  for (; i + L <= n; i += L) {
    if (P::any(P::load(p + i) == needle)) {
      for (index_t j = i;; ++j) {
        if (p[j] == v) { return j; }
      }
    }
  }
  for (; i < n; ++i) {
    if (p[i] == v) { return i; }
  }
  return n;
}

/// First index of the minimum / maximum value: one vectorized value pass,
/// one vectorized equality search. First-occurrence semantics match
/// std::min_element / max_element for totally ordered inputs (NaN-free
/// floats; see DESIGN.md §18 for the contract).
template <class T>
index_t min_index_k(const T* p, index_t n) {
  return find_eq_k<T>(p, n, reduce_min_k<T>(p, n));
}

template <class T>
index_t max_index_k(const T* p, index_t n) {
  return find_eq_k<T>(p, n, reduce_max_k<T>(p, n));
}

template <class T>
index_t count_eq_k(const T* p, index_t n, T v) {
  using P = pack<T>;
  constexpr index_t L = P::lanes;
  const typename P::vec needle = P::broadcast(v);
  // Matching lanes contribute -1; accumulate the negated mask so each lane
  // counts its own hits. Lane counters are element-width (int32 for 32-bit
  // types), so flush into the 64-bit total every 2^30 vector iterations —
  // without the blocked outer loop, all-equal inputs above ~2^31 * lanes
  // elements would wrap the per-lane counters and return a wrong count.
  constexpr index_t flush_block = (index_t{1} << 30) * L;  // elements
  index_t count = 0;
  index_t i = 0;
  while (i + L <= n) {
    const index_t block_end = n - i < flush_block ? n : i + flush_block;
    typename P::mask acc = P::zero_mask();
    for (; i + L <= block_end; i += L) { acc -= (P::load(p + i) == needle); }
    for (index_t k = 0; k < L; ++k) { count += static_cast<index_t>(acc[k]); }
  }
  for (; i < n; ++i) { count += (p[i] == v) ? 1 : 0; }
  return count;
}

// --- transforms --------------------------------------------------------------

template <class T>
T dot_k(const T* a, const T* b, index_t n) {
  using P = pack<T>;
  constexpr index_t L = P::lanes;
  T total = T(0);
  index_t i = 0;
  if (n >= L) {
    typename P::vec a0 = P::broadcast(T(0));
    typename P::vec a1 = a0;
    typename P::vec a2 = a0;
    typename P::vec a3 = a0;
    for (; i + 4 * L <= n; i += 4 * L) {
      a0 += P::load(a + i) * P::load(b + i);
      a1 += P::load(a + i + L) * P::load(b + i + L);
      a2 += P::load(a + i + 2 * L) * P::load(b + i + 2 * L);
      a3 += P::load(a + i + 3 * L) * P::load(b + i + 3 * L);
    }
    for (; i + L <= n; i += L) { a0 += P::load(a + i) * P::load(b + i); }
    a0 += a1;
    a2 += a3;
    a0 += a2;
    total = P::hsum(a0);
  }
  for (; i < n; ++i) { total += a[i] * b[i]; }
  return total;
}

template <class T>
void add_k(const T* a, const T* b, T* out, index_t n) {
  using P = pack<T>;
  constexpr index_t L = P::lanes;
  index_t i = 0;
  for (; i + L <= n; i += L) {
    P::store(out + i, P::load(a + i) + P::load(b + i));
  }
  for (; i < n; ++i) { out[i] = a[i] + b[i]; }
}

template <class T>
void sub_k(const T* a, const T* b, T* out, index_t n) {
  using P = pack<T>;
  constexpr index_t L = P::lanes;
  index_t i = 0;
  for (; i + L <= n; i += L) {
    P::store(out + i, P::load(a + i) - P::load(b + i));
  }
  for (; i < n; ++i) { out[i] = a[i] - b[i]; }
}

template <class T>
void mul_k(const T* a, const T* b, T* out, index_t n) {
  using P = pack<T>;
  constexpr index_t L = P::lanes;
  index_t i = 0;
  for (; i + L <= n; i += L) {
    P::store(out + i, P::load(a + i) * P::load(b + i));
  }
  for (; i < n; ++i) { out[i] = a[i] * b[i]; }
}

template <class T>
void negate_k(const T* a, T* out, index_t n) {
  using P = pack<T>;
  constexpr index_t L = P::lanes;
  const typename P::vec zero = P::broadcast(T(0));
  index_t i = 0;
  for (; i + L <= n; i += L) { P::store(out + i, zero - P::load(a + i)); }
  for (; i < n; ++i) { out[i] = static_cast<T>(T(0) - a[i]); }
}

// --- splitter classification ---------------------------------------------------

/// upper_bound rank of one key against the padded Eytzinger tree:
/// branchless descent k -> 2k + 1 + (tree[k] <= x) over `levels` levels;
/// final rank = k - (2^levels - 1) counts the padded entries <= x, and
/// clamping to n_s removes the padding (only reachable when x is at or above
/// the padding value, which is at or above every real splitter).
template <class T>
inline index_t eytzinger_rank(const T* tree, int levels, index_t tree_size,
                              index_t n_s, T x) {
  index_t k = 0;
  for (int l = 0; l < levels; ++l) {
    k = 2 * k + 1 + static_cast<index_t>(tree[k] <= x);
  }
  const index_t rank = k - tree_size;
  return rank < n_s ? rank : n_s;
}

template <class T>
void classify_k(const T* keys, index_t n, const T* sorted, index_t n_s,
                const T* tree, int levels, std::uint32_t* out) {
  using P = pack<T>;
  constexpr index_t L = P::lanes;
  if (n_s <= 0) {
    for (index_t i = 0; i < n; ++i) { out[i] = 0; }
    return;
  }
  if (n_s <= 24) {
    // Few splitters: rank = count of (sorted[j] <= key), one broadcast
    // compare per splitter, mask-accumulated per lane — truly data-parallel
    // across keys.
    index_t i = 0;
    for (; i + L <= n; i += L) {
      const typename P::vec v = P::load(keys + i);
      typename P::mask acc = P::zero_mask();
      for (index_t j = 0; j < n_s; ++j) {
        acc -= (v >= P::broadcast(sorted[j]));
      }
      for (index_t k = 0; k < L; ++k) {
        out[i + k] = static_cast<std::uint32_t>(acc[k]);
      }
    }
    for (; i < n; ++i) {
      index_t r = 0;
      while (r < n_s && sorted[r] <= keys[i]) { ++r; }
      out[i] = static_cast<std::uint32_t>(r);
    }
    return;
  }
  // Many splitters: four interleaved branchless Eytzinger descents hide the
  // tree-load latency (superscalar ILP — the descent itself is a dependent
  // gather chain no pre-compiled vector form can beat portably).
  const index_t tree_size = (index_t{1} << levels) - 1;
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    index_t k0 = 0;
    index_t k1 = 0;
    index_t k2 = 0;
    index_t k3 = 0;
    for (int l = 0; l < levels; ++l) {
      k0 = 2 * k0 + 1 + static_cast<index_t>(tree[k0] <= keys[i]);
      k1 = 2 * k1 + 1 + static_cast<index_t>(tree[k1] <= keys[i + 1]);
      k2 = 2 * k2 + 1 + static_cast<index_t>(tree[k2] <= keys[i + 2]);
      k3 = 2 * k3 + 1 + static_cast<index_t>(tree[k3] <= keys[i + 3]);
    }
    const index_t r0 = k0 - tree_size;
    const index_t r1 = k1 - tree_size;
    const index_t r2 = k2 - tree_size;
    const index_t r3 = k3 - tree_size;
    out[i] = static_cast<std::uint32_t>(r0 < n_s ? r0 : n_s);
    out[i + 1] = static_cast<std::uint32_t>(r1 < n_s ? r1 : n_s);
    out[i + 2] = static_cast<std::uint32_t>(r2 < n_s ? r2 : n_s);
    out[i + 3] = static_cast<std::uint32_t>(r3 < n_s ? r3 : n_s);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(
        eytzinger_rank(tree, levels, tree_size, n_s, keys[i]));
  }
}

// --- table assembly ----------------------------------------------------------

template <class T>
void fill_set(kernel_set<T>& s) {
  s.lanes = static_cast<unsigned>(pack<T>::lanes);
  s.reduce_sum = &reduce_sum_k<T>;
  s.reduce_min = &reduce_min_k<T>;
  s.reduce_max = &reduce_max_k<T>;
  s.min_index = &min_index_k<T>;
  s.max_index = &max_index_k<T>;
  s.find_eq = &find_eq_k<T>;
  s.count_eq = &count_eq_k<T>;
  s.dot = &dot_k<T>;
  s.add = &add_k<T>;
  s.sub = &sub_k<T>;
  s.mul = &mul_k<T>;
  s.negate = &negate_k<T>;
  s.classify = &classify_k<T>;
}

inline kernel_table make_table(const char* table_name) {
  kernel_table t;
  t.name = table_name;
  t.compiled = true;
  fill_set(t.f32);
  fill_set(t.f64);
  fill_set(t.i32);
  fill_set(t.i64);
  fill_set(t.u32);
  fill_set(t.u64);
  return t;
}

}  // namespace impl
}  // namespace
}  // namespace pstlb::simd

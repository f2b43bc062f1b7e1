// Per-ISA vectorized kernel tables (DESIGN.md §18).
//
// Explicit vectorization through runtime dispatch is only possible for a
// closed set of (element type, operation) pairs — an arbitrary user functor
// cannot be compiled into a pre-built AVX2 translation unit. The closed set
// covers the arithmetic element types and the std functors the paper's
// kernels use: {float, double, int32/64, uint32/64} × {plus, minus,
// multiplies, negate, less (min/max), equal_to (find/count)}. Everything
// outside the set falls back to the classic scalar leaf — silently, by
// returning a disengaged kernel set.
//
// Each ISA level is one translation unit (kernels_{sse2,avx2,avx512}.cpp)
// compiling the same templates (kernels_impl.hpp) under that level's -m
// flags inside a TU-local namespace, so no inline function is ever defined
// under two flag sets (the classic ODR trap of -mavx2 builds). The tables
// expose plain function pointers over raw pointers; the System V ABI makes
// them callable from baseline code regardless of the callee's flags.
#pragma once

#include <cstdint>
#include <type_traits>

#include "pstlb/common.hpp"

namespace pstlb::simd {

enum class isa : int;

/// Vectorized kernels over a contiguous range of one element type. Function
/// pointers are null / lanes == 0 in a disengaged set (type not covered or
/// table not compiled). All "first index" kernels return `n` on no hit.
template <class T>
struct kernel_set {
  unsigned lanes = 0;  // elements per vector register; 0 = disengaged

  /// Sum of [p, p+n) — multi-accumulator, so FP results may reassociate
  /// relative to a left fold (the documented par_unseq contract).
  T (*reduce_sum)(const T* p, index_t n) = nullptr;
  /// Minimum / maximum value of [p, p+n), n >= 1.
  T (*reduce_min)(const T* p, index_t n) = nullptr;
  T (*reduce_max)(const T* p, index_t n) = nullptr;
  /// First index holding the min/max value (two vector passes), n >= 1.
  index_t (*min_index)(const T* p, index_t n) = nullptr;
  index_t (*max_index)(const T* p, index_t n) = nullptr;
  /// First i with p[i] == v, else n (blockwise compare + early exit).
  index_t (*find_eq)(const T* p, index_t n, T v) = nullptr;
  /// Number of i with p[i] == v.
  index_t (*count_eq)(const T* p, index_t n, T v) = nullptr;
  /// Sum of a[i] * b[i] (transform_reduce's default op pair).
  T (*dot)(const T* a, const T* b, index_t n) = nullptr;
  /// Element-wise binary transforms; out may alias either input exactly.
  void (*add)(const T* a, const T* b, T* out, index_t n) = nullptr;
  void (*sub)(const T* a, const T* b, T* out, index_t n) = nullptr;
  void (*mul)(const T* a, const T* b, T* out, index_t n) = nullptr;
  /// Unary negate transform.
  void (*negate)(const T* a, T* out, index_t n) = nullptr;
  /// Splitter classification: out[i] = upper_bound(sorted, sorted + n_s,
  /// keys[i]) rank under std::less. Small splitter sets use a vectorized
  /// count of (sorted[j] <= key) over the sorted array directly; larger
  /// ones descend `tree`, an Eytzinger-layout copy of (2^levels - 1)
  /// entries whose slots past the last splitter hold any value at or above
  /// the largest splitter (samplesort's splitter_tree repeats it).
  void (*classify)(const T* keys, index_t n, const T* sorted, index_t n_s,
                   const T* tree, int levels, std::uint32_t* out) = nullptr;
};

/// One ISA level's kernels for every covered element type.
struct kernel_table {
  const char* name = "scalar";
  /// False when this binary could not compile the level (non-x86 target):
  /// every set inside is disengaged.
  bool compiled = false;
  kernel_set<float> f32;
  kernel_set<double> f64;
  kernel_set<std::int32_t> i32;
  kernel_set<std::int64_t> i64;
  kernel_set<std::uint32_t> u32;
  kernel_set<std::uint64_t> u64;
};

/// The four level tables. scalar is always compiled (plain left-fold loops,
/// baseline flags) and serves as the differential-test reference;
/// front-ends never dispatch to it (a scalar selection means "run the
/// classic leaf", see leaf.hpp).
const kernel_table& table_for(isa level);

/// Per-level table accessors (each defined in its own translation unit so
/// its -m flags never leak into shared code). Only call these for levels
/// <= the clamped active level: constructing a level's static table runs
/// code compiled under that level's -m flags, which SIGILLs on hosts below
/// it (GCC emits e.g. AVX moves even in the table-building glue).
const kernel_table& scalar_table();
const kernel_table& sse2_table();
const kernel_table& avx2_table();
const kernel_table& avx512_table();

/// Per-level "was this table compiled" flags: constant-initialized data
/// objects defined in each level's translation unit from its preprocessor
/// state. ISA resolution (isa.cpp compiled_max / clamp) reads these instead
/// of calling the accessors above, so answering "what did this build
/// compile?" never executes ISA-flagged instructions.
extern const bool sse2_compiled;
extern const bool avx2_compiled;
extern const bool avx512_compiled;

namespace detail {
/// True for element types the kernel tables cover.
template <class T>
inline constexpr bool covered_elem_v =
    std::is_same_v<T, float> || std::is_same_v<T, double> ||
    std::is_same_v<T, std::int32_t> || std::is_same_v<T, std::int64_t> ||
    std::is_same_v<T, std::uint32_t> || std::is_same_v<T, std::uint64_t>;

template <class T>
struct table_member {
  static const kernel_set<T>* get(const kernel_table&) {
    return nullptr;  // type outside the closed set
  }
};
template <>
struct table_member<float> {
  static const kernel_set<float>* get(const kernel_table& t) { return &t.f32; }
};
template <>
struct table_member<double> {
  static const kernel_set<double>* get(const kernel_table& t) { return &t.f64; }
};
template <>
struct table_member<std::int32_t> {
  static const kernel_set<std::int32_t>* get(const kernel_table& t) {
    return &t.i32;
  }
};
template <>
struct table_member<std::int64_t> {
  static const kernel_set<std::int64_t>* get(const kernel_table& t) {
    return &t.i64;
  }
};
template <>
struct table_member<std::uint32_t> {
  static const kernel_set<std::uint32_t>* get(const kernel_table& t) {
    return &t.u32;
  }
};
template <>
struct table_member<std::uint64_t> {
  static const kernel_set<std::uint64_t>* get(const kernel_table& t) {
    return &t.u64;
  }
};
}  // namespace detail

/// Kernels of type T at `level`; null when the type is outside the closed
/// set or the level's table is not compiled.
template <class T>
const kernel_set<T>* set_for(isa level) {
  const kernel_table& t = table_for(level);
  if (!t.compiled) { return nullptr; }
  const kernel_set<T>* s = detail::table_member<T>::get(t);
  return (s != nullptr && s->lanes > 0) ? s : nullptr;
}

}  // namespace pstlb::simd

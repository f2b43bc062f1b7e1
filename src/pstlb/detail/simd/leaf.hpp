// Front-end bridge onto the vector kernel tables (DESIGN.md §18).
//
// Front-ends never touch kernel_table directly: they ask `leaf_for<T>` for a
// kernel set once per algorithm call, get null whenever anything disqualifies
// the range (policy didn't ask, iterator not contiguous, element type outside
// the closed set, active ISA is scalar), and fall back to the classic leaf.
// That null path is the PSTLB_SIMD=scalar bit-identity guarantee: a scalar
// selection runs exactly the code that ran before this layer existed.
#pragma once

#include <functional>
#include <iterator>
#include <type_traits>

#include "pstlb/common.hpp"
#include "pstlb/detail/simd/isa.hpp"
#include "pstlb/detail/simd/kernels.hpp"

namespace pstlb::simd {

// ---- std functor recognition --------------------------------------------
// Only the exact std functor types are recognized (transparent and
// T-specialized forms); any lambda or user type falls back to the classic
// leaf even when it computes the same thing — we cannot see inside it.

namespace detail {
template <class Op, template <class...> class Std, class T>
inline constexpr bool is_std_op_v =
    std::is_same_v<std::remove_cvref_t<Op>, Std<>> ||
    std::is_same_v<std::remove_cvref_t<Op>, Std<T>>;
}  // namespace detail

template <class Op, class T>
inline constexpr bool is_plus_v = detail::is_std_op_v<Op, std::plus, T>;
template <class Op, class T>
inline constexpr bool is_minus_v = detail::is_std_op_v<Op, std::minus, T>;
template <class Op, class T>
inline constexpr bool is_multiplies_v =
    detail::is_std_op_v<Op, std::multiplies, T>;
template <class Op, class T>
inline constexpr bool is_negate_v = detail::is_std_op_v<Op, std::negate, T>;
template <class Op, class T>
inline constexpr bool is_less_v = detail::is_std_op_v<Op, std::less, T>;
template <class Op, class T>
inline constexpr bool is_equal_v = detail::is_std_op_v<Op, std::equal_to, T>;

// ---- range eligibility ---------------------------------------------------

namespace detail {
/// True when It is a contiguous iterator whose value type is exactly T and
/// T is inside the kernel tables' closed element set.
template <class T, class It>
inline constexpr bool leaf_match_v =
    std::contiguous_iterator<std::remove_cvref_t<It>> &&
    covered_elem_v<T> &&
    std::is_same_v<typename std::iterator_traits<
                       std::remove_cvref_t<It>>::value_type,
                   T>;
}  // namespace detail

/// Compile-time half of the gate: every iterator in the pack is contiguous
/// over exactly T, and T is covered. Lets front-ends skip even the runtime
/// probe for ranges that can never vectorize.
template <class T, class... Its>
inline constexpr bool leaf_eligible_v =
    (detail::leaf_match_v<T, Its> && ...);

/// Kernels for element type T at the active ISA, or null when the caller
/// must run the classic scalar leaf. `wanted` carries the policy gate
/// (exec::policy::unseq); a scalar active level always returns null so
/// PSTLB_SIMD=scalar reproduces pre-SIMD behaviour element for element.
/// Counts one leaf selection per call (tab4_simd / stats attribution).
template <class T, class... Its>
const kernel_set<T>* leaf_for(bool wanted) {
  if constexpr (leaf_eligible_v<T, Its...>) {
    if (!wanted) { return nullptr; }
    const isa act = active();
    if (act == isa::scalar) { return nullptr; }
    const kernel_set<T>* s = set_for<T>(act);
    if (s != nullptr) { note_leaf(act); }
    return s;
  } else {
    (void)wanted;
    return nullptr;
  }
}

}  // namespace pstlb::simd

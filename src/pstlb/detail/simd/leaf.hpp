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
#include <limits>
#include <type_traits>
#include <vector>

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

// ---- samplesort classification plan -------------------------------------

/// Precomputed state for vectorized bucket classification: the sorted
/// splitter array (borrowed — must outlive the plan) plus an
/// Eytzinger-layout copy padded to a complete tree with a value no key can
/// exceed (+infinity for floating-point types — the finite max() would sort
/// below an infinite splitter and break the descent's monotonicity — the
/// type's maximum for integers), which the large-splitter kernel path
/// descends branchlessly. Disengaged
/// (engaged() == false) when the policy/ISA/type gate fails; callers then
/// use their classic comparison-based bucket_of.
template <class T>
class classify_plan {
 public:
  classify_plan() = default;

  /// `sorted` must be ascending under std::less and stay alive while the
  /// plan is used.
  classify_plan(const T* sorted, index_t n_s, bool wanted) {
    if (!wanted || n_s <= 0) { return; }
    const isa act = active();
    if (act == isa::scalar) { return; }
    const kernel_set<T>* s = set_for<T>(act);
    if (s == nullptr || s->classify == nullptr) { return; }
    levels_ = 0;
    while (((index_t{1} << levels_) - 1) < n_s) { ++levels_; }
    // Pad above any representable splitter: +inf for floats keeps the
    // in-order sequence sorted even when the data (and thus a sampled
    // splitter) contains infinities; max() is only finite-type-correct.
    constexpr T pad = std::numeric_limits<T>::has_infinity
                          ? std::numeric_limits<T>::infinity()
                          : std::numeric_limits<T>::max();
    tree_.assign(static_cast<std::size_t>((index_t{1} << levels_) - 1), pad);
    fill_inorder(sorted, n_s);
    sorted_ = sorted;
    n_s_ = n_s;
    set_ = s;
    note_leaf(act);
  }

  bool engaged() const { return set_ != nullptr; }

  /// out[i] = upper_bound(sorted, sorted + n_s, keys[i]) rank, i in [0, n).
  void run(const T* keys, index_t n, std::uint32_t* out) const {
    set_->classify(keys, n, sorted_, n_s_, tree_.data(), levels_, out);
  }

 private:
  void fill_inorder(const T* sorted, index_t n_s) {
    // In-order traversal of the complete tree visits Eytzinger slots in
    // ascending key order; slots past n_s keep the max-value padding.
    const index_t size = static_cast<index_t>(tree_.size());
    index_t next = 0;
    index_t k = 0;
    std::vector<index_t> stack;
    while (k < size || !stack.empty()) {
      while (k < size) {
        stack.push_back(k);
        k = 2 * k + 1;
      }
      k = stack.back();
      stack.pop_back();
      if (next < n_s) { tree_[static_cast<std::size_t>(k)] = sorted[next]; }
      ++next;
      k = 2 * k + 2;
    }
  }

  const kernel_set<T>* set_ = nullptr;
  const T* sorted_ = nullptr;
  index_t n_s_ = 0;
  std::vector<T> tree_;
  int levels_ = 0;
};

}  // namespace pstlb::simd

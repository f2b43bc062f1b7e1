// Reduction- and search-family parallel algorithms.
//
// Reductions map onto backends::parallel_reduce (per-slot partials, ordered
// fold); searches map onto backends::parallel_find (cancellable blocks,
// fetch-min of the first hit), preserving first-occurrence semantics.
#pragma once

#include <algorithm>
#include <functional>
#include <iterator>
#include <numeric>
#include <utility>

#include "backends/skeletons.hpp"
#include "pstlb/detail/simd/leaf.hpp"
#include "pstlb/exec.hpp"
#include "trace/stats_registry.hpp"

namespace pstlb {

// --- reduce / transform_reduce ---------------------------------------------

template <class It, class T, class Op>
T reduce(const exec::policy& policy, It first, It last, T init, Op op) {
  stats::scoped_call pstlb_stats_scope_(stats::op::reduce);
  const index_t n = std::distance(first, last);
  // par_unseq: sum leaves go through the SIMD kernel table when the op is
  // std::plus over a covered contiguous element type. Multi-accumulator
  // kernels reassociate FP sums — the licence unseq grants; non-plus ops
  // (including non-commutative ones) always keep the ordered classic leaf.
  constexpr bool vec_ok = simd::leaf_eligible_v<T, It> && simd::is_plus_v<Op, T>;
  const simd::kernel_set<T>* vk = nullptr;
  if constexpr (vec_ok) {
    vk = simd::leaf_for<T, It>(policy.unseq);
  }
  return exec::dispatch(
      policy, n,
      [&] {
        if constexpr (vec_ok) {
          if (vk != nullptr && n > 0) {
            return op(std::move(init), vk->reduce_sum(std::to_address(first), n));
          }
        }
        return std::reduce(first, last, std::move(init), op);
      },
      [&](const backends::backend& be, index_t grain) {
        return backends::parallel_reduce(
            be, n, grain, std::move(init),
            [&](index_t b, index_t e) {
              if constexpr (vec_ok) {
                if (vk != nullptr) {
                  return vk->reduce_sum(std::to_address(first) + b, e - b);
                }
              }
              return std::reduce(first + b + 1, first + e, T(first[b]), op);
            },
            op);
      });
}

template <class It, class T>
T reduce(const exec::policy& policy, It first, It last, T init) {
  stats::scoped_call pstlb_stats_scope_(stats::op::reduce);
  return pstlb::reduce(policy, first, last, std::move(init),
                       std::plus<>{});
}

template <class It>
typename std::iterator_traits<It>::value_type reduce(const exec::policy& policy, It first,
                                                     It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::reduce);
  using T = typename std::iterator_traits<It>::value_type;
  return pstlb::reduce(policy, first, last, T{}, std::plus<>{});
}

template <class It, class T, class Reduce, class Transform>
T transform_reduce(const exec::policy& policy, It first, It last, T init,
                   Reduce reduce_op, Transform transform_op) {
  stats::scoped_call pstlb_stats_scope_(stats::op::transform_reduce);
  const index_t n = std::distance(first, last);
  return exec::dispatch(
      policy, n,
      [&] {
        return std::transform_reduce(first, last, std::move(init), reduce_op,
                                     transform_op);
      },
      [&](const backends::backend& be, index_t grain) {
        return backends::parallel_reduce(
            be, n, grain, std::move(init),
            [&](index_t b, index_t e) {
              T acc = transform_op(first[b]);
              for (index_t i = b + 1; i < e; ++i) {
                acc = reduce_op(std::move(acc), transform_op(first[i]));
              }
              return acc;
            },
            reduce_op);
      });
}

template <class It1, class It2, class T, class Reduce,
          class Transform>
T transform_reduce(const exec::policy& policy, It1 first1, It1 last1, It2 first2, T init,
                   Reduce reduce_op, Transform transform_op) {
  stats::scoped_call pstlb_stats_scope_(stats::op::transform_reduce);
  const index_t n = std::distance(first1, last1);
  // par_unseq: the default (plus, multiplies) pair is a dot product — the
  // paper's Tab. 4 transform_reduce kernel — and runs the SIMD dot kernel.
  constexpr bool vec_ok = simd::leaf_eligible_v<T, It1, It2> &&
                          simd::is_plus_v<Reduce, T> &&
                          simd::is_multiplies_v<Transform, T>;
  const simd::kernel_set<T>* vk = nullptr;
  if constexpr (vec_ok) {
    vk = simd::leaf_for<T, It1, It2>(policy.unseq);
  }
  return exec::dispatch(
      policy, n,
      [&] {
        if constexpr (vec_ok) {
          if (vk != nullptr && n > 0) {
            return reduce_op(std::move(init),
                             vk->dot(std::to_address(first1),
                                     std::to_address(first2), n));
          }
        }
        return std::transform_reduce(first1, last1, first2, std::move(init),
                                     reduce_op, transform_op);
      },
      [&](const backends::backend& be, index_t grain) {
        return backends::parallel_reduce(
            be, n, grain, std::move(init),
            [&](index_t b, index_t e) {
              if constexpr (vec_ok) {
                if (vk != nullptr) {
                  return vk->dot(std::to_address(first1) + b,
                                 std::to_address(first2) + b, e - b);
                }
              }
              T acc = transform_op(first1[b], first2[b]);
              for (index_t i = b + 1; i < e; ++i) {
                acc = reduce_op(std::move(acc), transform_op(first1[i], first2[i]));
              }
              return acc;
            },
            reduce_op);
      });
}

template <class It1, class It2, class T>
T transform_reduce(const exec::policy& policy, It1 first1, It1 last1, It2 first2,
                   T init) {
  stats::scoped_call pstlb_stats_scope_(stats::op::transform_reduce);
  return pstlb::transform_reduce(policy, first1, last1, first2,
                                 std::move(init), std::plus<>{}, std::multiplies<>{});
}

// --- count ------------------------------------------------------------------

template <class It, class Pred>
typename std::iterator_traits<It>::difference_type count_if(
    const exec::policy& policy, It first, It last, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::count_if);
  using D = typename std::iterator_traits<It>::difference_type;
  const index_t n = std::distance(first, last);
  return exec::dispatch(
      policy, n, [&] { return std::count_if(first, last, pred); },
      [&](const backends::backend& be, index_t grain) {
        return backends::parallel_reduce(
            be, n, grain, D{0},
            [&](index_t b, index_t e) {
              return static_cast<D>(std::count_if(first + b, first + e, pred));
            },
            std::plus<>{});
      });
}

template <class It, class T>
typename std::iterator_traits<It>::difference_type count(
    const exec::policy& policy, It first, It last, const T& value) {
  stats::scoped_call pstlb_stats_scope_(stats::op::count);
  using D = typename std::iterator_traits<It>::difference_type;
  using Elem = typename std::iterator_traits<It>::value_type;
  // par_unseq: same-typed value counts run the vectorized count_eq leaf
  // (accumulated compare masks) instead of delegating to count_if.
  if constexpr (simd::leaf_eligible_v<Elem, It> && std::is_same_v<T, Elem>) {
    const simd::kernel_set<Elem>* vk =
        simd::leaf_for<Elem, It>(policy.unseq);
    if (vk != nullptr) {
      const index_t n = std::distance(first, last);
      const Elem* p = std::to_address(first);
      const Elem v = value;
      return exec::dispatch(
          policy, n, [&] { return static_cast<D>(vk->count_eq(p, n, v)); },
          [&](const backends::backend& be, index_t grain) {
            return backends::parallel_reduce(
                be, n, grain, D{0},
                [&](index_t b, index_t e) {
                  return static_cast<D>(vk->count_eq(p + b, e - b, v));
                },
                std::plus<>{});
          });
    }
  }
  return pstlb::count_if(policy, first, last,
                         [&value](const auto& x) { return x == value; });
}

// --- min/max element --------------------------------------------------------

namespace detail {
/// (index, keep-earlier-on-tie) reduction step for min_element semantics:
/// strictly-less wins; equal keeps the smaller index.
template <class It, class Compare>
index_t better_min(It first, Compare comp, index_t a, index_t b) {
  const index_t lo = a < b ? a : b;
  const index_t hi = a < b ? b : a;
  return comp(first[hi], first[lo]) ? hi : lo;
}
/// max_element: first element strictly greater than everything before it.
template <class It, class Compare>
index_t better_max(It first, Compare comp, index_t a, index_t b) {
  const index_t lo = a < b ? a : b;
  const index_t hi = a < b ? b : a;
  return comp(first[lo], first[hi]) ? hi : lo;
}
}  // namespace detail

template <class It, class Compare>
It min_element(const exec::policy& policy, It first, It last, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::min_element);
  const index_t n = std::distance(first, last);
  if (n <= 0) { return last; }
  // par_unseq: std::less comparisons vectorize as two passes — a blended
  // reduce_min, then find_eq of that value — which keeps first-occurrence
  // semantics for totally ordered data (see DESIGN.md §18 for the float
  // NaN carve-out).
  using Elem = typename std::iterator_traits<It>::value_type;
  constexpr bool vec_ok =
      simd::leaf_eligible_v<Elem, It> && simd::is_less_v<Compare, Elem>;
  const simd::kernel_set<Elem>* vk = nullptr;
  if constexpr (vec_ok) {
    vk = simd::leaf_for<Elem, It>(policy.unseq);
  }
  return exec::dispatch(
      policy, n,
      [&] {
        if constexpr (vec_ok) {
          if (vk != nullptr) {
            return first + vk->min_index(std::to_address(first), n);
          }
        }
        return std::min_element(first, last, comp);
      },
      [&](const backends::backend& be, index_t grain) {
        const index_t best = backends::parallel_reduce(
            be, n, grain, index_t{0},
            [&](index_t b, index_t e) {
              if constexpr (vec_ok) {
                if (vk != nullptr) {
                  return b + vk->min_index(std::to_address(first) + b, e - b);
                }
              }
              return static_cast<index_t>(
                  std::min_element(first + b, first + e, comp) - first);
            },
            [&](index_t a, index_t b) { return detail::better_min(first, comp, a, b); });
        return first + best;
      });
}

template <class It>
It min_element(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::min_element);
  return pstlb::min_element(policy, first, last, std::less<>{});
}

template <class It, class Compare>
It max_element(const exec::policy& policy, It first, It last, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::max_element);
  const index_t n = std::distance(first, last);
  if (n <= 0) { return last; }
  using Elem = typename std::iterator_traits<It>::value_type;
  constexpr bool vec_ok =
      simd::leaf_eligible_v<Elem, It> && simd::is_less_v<Compare, Elem>;
  const simd::kernel_set<Elem>* vk = nullptr;
  if constexpr (vec_ok) {
    vk = simd::leaf_for<Elem, It>(policy.unseq);
  }
  return exec::dispatch(
      policy, n,
      [&] {
        if constexpr (vec_ok) {
          if (vk != nullptr) {
            return first + vk->max_index(std::to_address(first), n);
          }
        }
        return std::max_element(first, last, comp);
      },
      [&](const backends::backend& be, index_t grain) {
        const index_t best = backends::parallel_reduce(
            be, n, grain, index_t{0},
            [&](index_t b, index_t e) {
              if constexpr (vec_ok) {
                if (vk != nullptr) {
                  return b + vk->max_index(std::to_address(first) + b, e - b);
                }
              }
              return static_cast<index_t>(
                  std::max_element(first + b, first + e, comp) - first);
            },
            [&](index_t a, index_t b) { return detail::better_max(first, comp, a, b); });
        return first + best;
      });
}

template <class It>
It max_element(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::max_element);
  return pstlb::max_element(policy, first, last, std::less<>{});
}

template <class It, class Compare>
std::pair<It, It> minmax_element(const exec::policy& policy, It first, It last,
                                 Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::minmax_element);
  const index_t n = std::distance(first, last);
  if (n <= 0) { return {last, last}; }
  return exec::dispatch(
      policy, n, [&] { return std::minmax_element(first, last, comp); },
      [&](const backends::backend& be, index_t grain) {
        using pair_t = std::pair<index_t, index_t>;  // (first min, last max)
        const pair_t best = backends::parallel_reduce(
            be, n, grain, pair_t{0, 0},
            [&](index_t b, index_t e) {
              const auto mm = std::minmax_element(first + b, first + e, comp);
              return pair_t{mm.first - first, mm.second - first};
            },
            [&](pair_t a, pair_t b) {
              // min keeps the earlier on ties; max keeps the *later* on ties,
              // matching std::minmax_element.
              const index_t mn = detail::better_min(first, comp, a.first, b.first);
              const index_t lo = a.second < b.second ? a.second : b.second;
              const index_t hi = a.second < b.second ? b.second : a.second;
              const index_t mx = comp(first[hi], first[lo]) ? lo : hi;
              return pair_t{mn, mx};
            });
        return std::pair<It, It>{first + best.first, first + best.second};
      });
}

template <class It>
std::pair<It, It> minmax_element(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::minmax_element);
  return pstlb::minmax_element(policy, first, last, std::less<>{});
}

// --- find family ------------------------------------------------------------

template <class It, class Pred>
It find_if(const exec::policy& policy, It first, It last, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::find_if);
  const index_t n = std::distance(first, last);
  return exec::dispatch(
      policy, n, [&] { return std::find_if(first, last, pred); },
      [&](const backends::backend& be, index_t grain) {
        const index_t hit = backends::parallel_find(
            be, n, grain, [&](index_t b, index_t e) {
              return static_cast<index_t>(std::find_if(first + b, first + e, pred) -
                                          first);
            });
        return first + hit;
      });
}

template <class It, class Pred>
It find_if_not(const exec::policy& policy, It first, It last, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::find_if_not);
  return pstlb::find_if(policy, first, last,
                        [&pred](const auto& x) { return !pred(x); });
}

template <class It, class T>
It find(const exec::policy& policy, It first, It last, const T& value) {
  stats::scoped_call pstlb_stats_scope_(stats::op::find);
  using Elem = typename std::iterator_traits<It>::value_type;
  // par_unseq: same-typed value searches run the branchless block probe
  // (vector compare + OR-mask early exit every 4 vectors) per leaf; the
  // parallel_find skeleton's first-hit fold is unchanged.
  if constexpr (simd::leaf_eligible_v<Elem, It> && std::is_same_v<T, Elem>) {
    const simd::kernel_set<Elem>* vk =
        simd::leaf_for<Elem, It>(policy.unseq);
    if (vk != nullptr) {
      const index_t n = std::distance(first, last);
      const Elem* p = std::to_address(first);
      const Elem v = value;
      return exec::dispatch(
          policy, n, [&] { return first + vk->find_eq(p, n, v); },
          [&](const backends::backend& be, index_t grain) {
            const index_t hit = backends::parallel_find(
                be, n, grain, [&](index_t b, index_t e) {
                  return b + vk->find_eq(p + b, e - b, v);
                });
            return first + hit;
          });
    }
  }
  return pstlb::find_if(policy, first, last,
                        [&value](const auto& x) { return x == value; });
}

template <class It, class Pred>
bool any_of(const exec::policy& policy, It first, It last, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::any_of);
  return pstlb::find_if(policy, first, last, pred) != last;
}

template <class It, class Pred>
bool none_of(const exec::policy& policy, It first, It last, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::none_of);
  return !pstlb::any_of(policy, first, last, pred);
}

template <class It, class Pred>
bool all_of(const exec::policy& policy, It first, It last, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::all_of);
  return pstlb::find_if_not(policy, first, last, pred) == last;
}

template <class It, class Pred>
It adjacent_find(const exec::policy& policy, It first, It last, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::adjacent_find);
  const index_t n = std::distance(first, last);
  if (n < 2) { return last; }
  return exec::dispatch(
      policy, n, [&] { return std::adjacent_find(first, last, pred); },
      [&](const backends::backend& be, index_t grain) {
        // Search the n-1 adjacent pairs; pair i = (v[i], v[i+1]).
        const index_t hit = backends::parallel_find(
            be, n - 1, grain, [&](index_t b, index_t e) {
              for (index_t i = b; i < e; ++i) {
                if (pred(first[i], first[i + 1])) { return i; }
              }
              return e;
            });
        return hit == n - 1 ? last : first + hit;
      });
}

template <class It>
It adjacent_find(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::adjacent_find);
  return pstlb::adjacent_find(policy, first, last, std::equal_to<>{});
}

// --- mismatch / equal -------------------------------------------------------

template <class It1, class It2, class Pred>
std::pair<It1, It2> mismatch(const exec::policy& policy, It1 first1, It1 last1,
                             It2 first2, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::mismatch);
  const index_t n = std::distance(first1, last1);
  return exec::dispatch(
      policy, n, [&] { return std::mismatch(first1, last1, first2, pred); },
      [&](const backends::backend& be, index_t grain) {
        const index_t hit = backends::parallel_find(
            be, n, grain, [&](index_t b, index_t e) {
              for (index_t i = b; i < e; ++i) {
                if (!pred(first1[i], first2[i])) { return i; }
              }
              return e;
            });
        return std::pair<It1, It2>{first1 + hit, first2 + hit};
      });
}

template <class It1, class It2>
std::pair<It1, It2> mismatch(const exec::policy& policy, It1 first1, It1 last1,
                             It2 first2) {
  stats::scoped_call pstlb_stats_scope_(stats::op::mismatch);
  return pstlb::mismatch(policy, first1, last1, first2,
                         std::equal_to<>{});
}

template <class It1, class It2, class Pred>
std::pair<It1, It2> mismatch(const exec::policy& policy, It1 first1, It1 last1,
                             It2 first2, It2 last2, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::mismatch);
  const index_t n =
      std::min<index_t>(std::distance(first1, last1), std::distance(first2, last2));
  auto result = pstlb::mismatch(policy, first1, first1 + n, first2, pred);
  return result;
}

template <class It1, class It2>
std::pair<It1, It2> mismatch(const exec::policy& policy, It1 first1, It1 last1,
                             It2 first2, It2 last2) {
  stats::scoped_call pstlb_stats_scope_(stats::op::mismatch);
  return pstlb::mismatch(policy, first1, last1, first2, last2,
                         std::equal_to<>{});
}

template <class It1, class It2, class Pred>
bool equal(const exec::policy& policy, It1 first1, It1 last1, It2 first2, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::equal);
  return pstlb::mismatch(policy, first1, last1, first2, pred).first ==
         last1;
}

template <class It1, class It2>
bool equal(const exec::policy& policy, It1 first1, It1 last1, It2 first2) {
  stats::scoped_call pstlb_stats_scope_(stats::op::equal);
  return pstlb::equal(policy, first1, last1, first2,
                      std::equal_to<>{});
}

template <class It1, class It2, class Pred>
bool equal(const exec::policy& policy, It1 first1, It1 last1, It2 first2, It2 last2,
           Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::equal);
  if (std::distance(first1, last1) != std::distance(first2, last2)) { return false; }
  return pstlb::equal(policy, first1, last1, first2, pred);
}

template <class It1, class It2>
bool equal(const exec::policy& policy, It1 first1, It1 last1, It2 first2, It2 last2) {
  stats::scoped_call pstlb_stats_scope_(stats::op::equal);
  return pstlb::equal(policy, first1, last1, first2, last2,
                      std::equal_to<>{});
}

// --- sortedness / heap / partition predicates --------------------------------

template <class It, class Compare>
It is_sorted_until(const exec::policy& policy, It first, It last, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::is_sorted_until);
  // First position i+1 such that comp(v[i+1], v[i]) — an adjacent_find with
  // the inverted comparison, shifted by one.
  auto hit = pstlb::adjacent_find(
      policy, first, last,
      [&comp](const auto& a, const auto& b) { return comp(b, a); });
  return hit == last ? last : hit + 1;
}

template <class It>
It is_sorted_until(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::is_sorted_until);
  return pstlb::is_sorted_until(policy, first, last, std::less<>{});
}

template <class It, class Compare>
bool is_sorted(const exec::policy& policy, It first, It last, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::is_sorted);
  return pstlb::is_sorted_until(policy, first, last, comp) == last;
}

template <class It>
bool is_sorted(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::is_sorted);
  return pstlb::is_sorted(policy, first, last, std::less<>{});
}

template <class It, class Compare>
It is_heap_until(const exec::policy& policy, It first, It last, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::is_heap_until);
  const index_t n = std::distance(first, last);
  if (n < 2) { return last; }
  return exec::dispatch(
      policy, n, [&] { return std::is_heap_until(first, last, comp); },
      [&](const backends::backend& be, index_t grain) {
        // Element i violates the heap property iff comp(parent, child).
        const index_t hit = backends::parallel_find(
            be, n - 1, grain, [&](index_t b, index_t e) {
              for (index_t i = b; i < e; ++i) {
                const index_t child = i + 1;
                if (comp(first[(child - 1) / 2], first[child])) { return i; }
              }
              return e;
            });
        return hit == n - 1 ? last : first + hit + 1;
      });
}

template <class It>
It is_heap_until(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::is_heap_until);
  return pstlb::is_heap_until(policy, first, last, std::less<>{});
}

template <class It, class Compare>
bool is_heap(const exec::policy& policy, It first, It last, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::is_heap);
  return pstlb::is_heap_until(policy, first, last, comp) == last;
}

template <class It>
bool is_heap(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::is_heap);
  return pstlb::is_heap(policy, first, last, std::less<>{});
}

template <class It, class Pred>
bool is_partitioned(const exec::policy& policy, It first, It last, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::is_partitioned);
  It boundary = pstlb::find_if_not(policy, first, last, pred);
  if (boundary == last) { return true; }
  return pstlb::none_of(policy, boundary, last, pred);
}

// --- lexicographical compare --------------------------------------------------

template <class It1, class It2, class Compare>
bool lexicographical_compare(const exec::policy& policy, It1 first1, It1 last1,
                             It2 first2, It2 last2, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::lexicographical_compare);
  const index_t n1 = std::distance(first1, last1);
  const index_t n2 = std::distance(first2, last2);
  const index_t n = std::min(n1, n2);
  // Find the first position where the ranges differ in either direction, then
  // decide on that element; ties fall through to the length comparison.
  auto differs = pstlb::mismatch(
      policy, first1, first1 + n, first2,
      [&comp](const auto& a, const auto& b) { return !comp(a, b) && !comp(b, a); });
  if (differs.first != first1 + n) {
    return comp(*differs.first, *differs.second);
  }
  return n1 < n2;
}

template <class It1, class It2>
bool lexicographical_compare(const exec::policy& policy, It1 first1, It1 last1,
                             It2 first2, It2 last2) {
  stats::scoped_call pstlb_stats_scope_(stats::op::lexicographical_compare);
  return pstlb::lexicographical_compare(policy, first1, last1, first2,
                                        last2, std::less<>{});
}

// --- subsequence searches ------------------------------------------------------

template <class It1, class It2, class Pred>
It1 find_first_of(const exec::policy& policy, It1 first1, It1 last1, It2 s_first,
                  It2 s_last, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::find_first_of);
  const index_t n = std::distance(first1, last1);
  return exec::dispatch(
      policy, n,
      [&] { return std::find_first_of(first1, last1, s_first, s_last, pred); },
      [&](const backends::backend& be, index_t grain) {
        const index_t hit = backends::parallel_find(
            be, n, grain, [&](index_t b, index_t e) {
              return static_cast<index_t>(
                  std::find_first_of(first1 + b, first1 + e, s_first, s_last, pred) -
                  first1);
            });
        return first1 + hit;
      });
}

template <class It1, class It2>
It1 find_first_of(const exec::policy& policy, It1 first1, It1 last1, It2 s_first,
                  It2 s_last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::find_first_of);
  return pstlb::find_first_of(policy, first1, last1, s_first, s_last,
                              std::equal_to<>{});
}

template <class It1, class It2, class Pred>
It1 search(const exec::policy& policy, It1 first1, It1 last1, It2 s_first, It2 s_last,
           Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::search);
  const index_t n = std::distance(first1, last1);
  const index_t m = std::distance(s_first, s_last);
  if (m == 0) { return first1; }
  if (m > n) { return last1; }
  const index_t windows = n - m + 1;
  return exec::dispatch(
      policy, windows,
      [&] { return std::search(first1, last1, s_first, s_last, pred); },
      [&](const backends::backend& be, index_t grain) {
        const index_t hit = backends::parallel_find(
            be, windows, grain, [&](index_t b, index_t e) {
              for (index_t i = b; i < e; ++i) {
                if (std::equal(s_first, s_last, first1 + i, pred)) { return i; }
              }
              return e;
            });
        return hit == windows ? last1 : first1 + hit;
      });
}

template <class It1, class It2>
It1 search(const exec::policy& policy, It1 first1, It1 last1, It2 s_first, It2 s_last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::search);
  return pstlb::search(policy, first1, last1, s_first, s_last,
                       std::equal_to<>{});
}

template <class It, class Size, class T, class Pred>
It search_n(const exec::policy& policy, It first, It last, Size count, const T& value,
            Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::search_n);
  const index_t n = std::distance(first, last);
  const index_t m = static_cast<index_t>(count);
  if (m <= 0) { return first; }
  if (m > n) { return last; }
  const index_t windows = n - m + 1;
  return exec::dispatch(
      policy, windows,
      [&] { return std::search_n(first, last, count, value, pred); },
      [&](const backends::backend& be, index_t grain) {
        const index_t hit = backends::parallel_find(
            be, windows, grain, [&](index_t b, index_t e) {
              for (index_t i = b; i < e; ++i) {
                bool all = true;
                for (index_t j = 0; j < m; ++j) {
                  if (!pred(first[i + j], value)) {
                    all = false;
                    break;
                  }
                }
                if (all) { return i; }
              }
              return e;
            });
        return hit == windows ? last : first + hit;
      });
}

template <class It, class Size, class T>
It search_n(const exec::policy& policy, It first, It last, Size count, const T& value) {
  stats::scoped_call pstlb_stats_scope_(stats::op::search_n);
  return pstlb::search_n(policy, first, last, count, value,
                         std::equal_to<>{});
}

template <class It1, class It2, class Pred>
It1 find_end(const exec::policy& policy, It1 first1, It1 last1, It2 s_first, It2 s_last,
             Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::find_end);
  const index_t n = std::distance(first1, last1);
  const index_t m = std::distance(s_first, s_last);
  if (m == 0 || m > n) { return last1; }
  const index_t windows = n - m + 1;
  return exec::dispatch(
      policy, windows,
      [&] { return std::find_end(first1, last1, s_first, s_last, pred); },
      [&](const backends::backend& be, index_t grain) {
        // Last occurrence: reduce block-local last matches with max.
        const index_t best = backends::parallel_reduce(
            be, windows, grain, index_t{-1},
            [&](index_t b, index_t e) {
              index_t found = -1;
              for (index_t i = b; i < e; ++i) {
                if (std::equal(s_first, s_last, first1 + i, pred)) { found = i; }
              }
              return found;
            },
            [](index_t a, index_t b) { return a > b ? a : b; });
        return best < 0 ? last1 : first1 + best;
      });
}

template <class It1, class It2>
It1 find_end(const exec::policy& policy, It1 first1, It1 last1, It2 s_first, It2 s_last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::find_end);
  return pstlb::find_end(policy, first1, last1, s_first, s_last,
                         std::equal_to<>{});
}

}  // namespace pstlb

// Map-family parallel algorithms: element-wise independent operations.
//
// Each front-end mirrors its std:: counterpart with the execution policy as
// the first argument, computes the input size, and funnels through
// exec::dispatch — the sequential path is the plain std:: algorithm, the
// parallel path is a backends::parallel_for over index ranges.
#pragma once

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <utility>

#include "backends/skeletons.hpp"
#include "pstlb/detail/scratch.hpp"
#include "pstlb/detail/simd/leaf.hpp"
#include "pstlb/exec.hpp"
#include "trace/stats_registry.hpp"

namespace pstlb {

template <class It, class F>
void for_each(const exec::policy& policy, It first, It last, F f) {
  stats::scoped_call pstlb_stats_scope_(stats::op::for_each);
  const index_t n = std::distance(first, last);
  exec::dispatch(
      policy, n, [&] { std::for_each(first, last, f); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::for_each(first + b, first + e, f);
        });
      });
}

template <class It, class Size, class F>
It for_each_n(const exec::policy& policy, It first, Size count, F f) {
  stats::scoped_call pstlb_stats_scope_(stats::op::for_each_n);
  if (count <= Size{0}) { return first; }
  const index_t n = static_cast<index_t>(count);
  exec::dispatch(
      policy, n, [&] { std::for_each_n(first, count, f); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::for_each(first + b, first + e, f);
        });
      });
  return std::next(first, static_cast<index_t>(count));
}

template <class It, class Out, class F>
Out transform(const exec::policy& policy, It first, It last, Out out, F f) {
  stats::scoped_call pstlb_stats_scope_(stats::op::transform);
  const index_t n = std::distance(first, last);
  // par_unseq: std::negate over a covered contiguous type runs the SIMD
  // negate kernel per leaf (exact for every covered type — integer wrap and
  // IEEE sign flip match the scalar loop bit for bit).
  using Elem = typename std::iterator_traits<It>::value_type;
  constexpr bool vec_ok = simd::leaf_eligible_v<Elem, It, Out> &&
                          simd::is_negate_v<F, Elem>;
  const simd::kernel_set<Elem>* vk = nullptr;
  if constexpr (vec_ok) {
    vk = simd::leaf_for<Elem, It, Out>(policy.unseq);
  }
  return exec::dispatch(
      policy, n,
      [&] {
        if constexpr (vec_ok) {
          if (vk != nullptr) {
            vk->negate(std::to_address(first), std::to_address(out), n);
            return out + n;
          }
        }
        return std::transform(first, last, out, f);
      },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          if constexpr (vec_ok) {
            if (vk != nullptr) {
              vk->negate(std::to_address(first) + b, std::to_address(out) + b,
                         e - b);
              return;
            }
          }
          std::transform(first + b, first + e, out + b, f);
        });
        return out + n;
      });
}

template <class It1, class It2, class Out, class F>
Out transform(const exec::policy& policy, It1 first1, It1 last1, It2 first2, Out out,
              F f) {
  stats::scoped_call pstlb_stats_scope_(stats::op::transform);
  const index_t n = std::distance(first1, last1);
  // par_unseq: std::plus/minus/multiplies over covered contiguous types run
  // the element-wise SIMD kernels; the kernels tolerate out aliasing either
  // input exactly (the a[i] op b[i] -> a[i] in-place idiom).
  using Elem = typename std::iterator_traits<It1>::value_type;
  constexpr bool elig = simd::leaf_eligible_v<Elem, It1, It2, Out>;
  constexpr bool vec_ok =
      elig && (simd::is_plus_v<F, Elem> || simd::is_minus_v<F, Elem> ||
               simd::is_multiplies_v<F, Elem>);
  const simd::kernel_set<Elem>* vk = nullptr;
  if constexpr (vec_ok) {
    vk = simd::leaf_for<Elem, It1, It2, Out>(policy.unseq);
  }
  auto vec_leaf = [&](index_t b, index_t e) {
    if constexpr (vec_ok) {
      const Elem* a = std::to_address(first1) + b;
      const Elem* c = std::to_address(first2) + b;
      Elem* o = std::to_address(out) + b;
      if constexpr (simd::is_plus_v<F, Elem>) {
        vk->add(a, c, o, e - b);
      } else if constexpr (simd::is_minus_v<F, Elem>) {
        vk->sub(a, c, o, e - b);
      } else {
        vk->mul(a, c, o, e - b);
      }
    } else {
      (void)b;
      (void)e;
    }
  };
  return exec::dispatch(
      policy, n,
      [&] {
        if constexpr (vec_ok) {
          if (vk != nullptr) {
            vec_leaf(0, n);
            return out + n;
          }
        }
        return std::transform(first1, last1, first2, out, f);
      },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          if constexpr (vec_ok) {
            if (vk != nullptr) {
              vec_leaf(b, e);
              return;
            }
          }
          std::transform(first1 + b, first1 + e, first2 + b, out + b, f);
        });
        return out + n;
      });
}

template <class It, class T>
void fill(const exec::policy& policy, It first, It last, const T& value) {
  stats::scoped_call pstlb_stats_scope_(stats::op::fill);
  const index_t n = std::distance(first, last);
  exec::dispatch(
      policy, n, [&] { std::fill(first, last, value); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::fill(first + b, first + e, value);
        });
      });
}

template <class It, class Size, class T>
It fill_n(const exec::policy& policy, It first, Size count, const T& value) {
  stats::scoped_call pstlb_stats_scope_(stats::op::fill_n);
  if (count <= Size{0}) { return first; }
  fill(policy, first, first + static_cast<index_t>(count), value);
  return first + static_cast<index_t>(count);
}

/// Note on generate: the generator is stateful by definition, so the parallel
/// version calls it independently per thread — results are only deterministic
/// for stateless generators, matching std::generate(par, ...) requirements.
template <class It, class Gen>
void generate(const exec::policy& policy, It first, It last, Gen gen) {
  stats::scoped_call pstlb_stats_scope_(stats::op::generate);
  const index_t n = std::distance(first, last);
  exec::dispatch(
      policy, n, [&] { std::generate(first, last, gen); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          Gen local = gen;  // per-block copy, as permitted for par policies
          std::generate(first + b, first + e, local);
        });
      });
}

template <class It, class Size, class Gen>
It generate_n(const exec::policy& policy, It first, Size count, Gen gen) {
  stats::scoped_call pstlb_stats_scope_(stats::op::generate_n);
  if (count <= Size{0}) { return first; }
  generate(policy, first, first + static_cast<index_t>(count), std::move(gen));
  return first + static_cast<index_t>(count);
}

template <class It, class Out>
Out copy(const exec::policy& policy, It first, It last, Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::copy);
  const index_t n = std::distance(first, last);
  return exec::dispatch(
      policy, n, [&] { return std::copy(first, last, out); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::copy(first + b, first + e, out + b);
        });
        return out + n;
      });
}

template <class It, class Size, class Out>
Out copy_n(const exec::policy& policy, It first, Size count, Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::copy_n);
  if (count <= Size{0}) { return out; }
  return copy(policy, first, first + static_cast<index_t>(count), out);
}

template <class It, class Out>
Out move(const exec::policy& policy, It first, It last, Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::move);
  const index_t n = std::distance(first, last);
  return exec::dispatch(
      policy, n, [&] { return std::move(first, last, out); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::move(first + b, first + e, out + b);
        });
        return out + n;
      });
}

template <class It1, class It2>
It2 swap_ranges(const exec::policy& policy, It1 first1, It1 last1, It2 first2) {
  stats::scoped_call pstlb_stats_scope_(stats::op::swap_ranges);
  const index_t n = std::distance(first1, last1);
  return exec::dispatch(
      policy, n, [&] { return std::swap_ranges(first1, last1, first2); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::swap_ranges(first1 + b, first1 + e, first2 + b);
        });
        return first2 + n;
      });
}

template <class It, class T>
void replace(const exec::policy& policy, It first, It last, const T& old_value,
             const T& new_value) {
  stats::scoped_call pstlb_stats_scope_(stats::op::replace);
  const index_t n = std::distance(first, last);
  exec::dispatch(
      policy, n, [&] { std::replace(first, last, old_value, new_value); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::replace(first + b, first + e, old_value, new_value);
        });
      });
}

template <class It, class Pred, class T>
void replace_if(const exec::policy& policy, It first, It last, Pred pred,
                const T& new_value) {
  stats::scoped_call pstlb_stats_scope_(stats::op::replace_if);
  const index_t n = std::distance(first, last);
  exec::dispatch(
      policy, n, [&] { std::replace_if(first, last, pred, new_value); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::replace_if(first + b, first + e, pred, new_value);
        });
      });
}

template <class It, class Out, class T>
Out replace_copy(const exec::policy& policy, It first, It last, Out out,
                 const T& old_value, const T& new_value) {
  stats::scoped_call pstlb_stats_scope_(stats::op::replace_copy);
  const index_t n = std::distance(first, last);
  return exec::dispatch(
      policy, n, [&] { return std::replace_copy(first, last, out, old_value, new_value); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::replace_copy(first + b, first + e, out + b, old_value, new_value);
        });
        return out + n;
      });
}

template <class It>
void reverse(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::reverse);
  const index_t n = std::distance(first, last);
  exec::dispatch(
      policy, n, [&] { std::reverse(first, last); },
      [&](const backends::backend& be, index_t grain) {
        // Swap mirrored halves: iteration space is the front half only.
        backends::parallel_for(be, n / 2, grain, [&](index_t b, index_t e, unsigned) {
          for (index_t i = b; i < e; ++i) {
            std::iter_swap(first + i, first + (n - 1 - i));
          }
        });
      });
}

template <class It, class Out>
Out reverse_copy(const exec::policy& policy, It first, It last, Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::reverse_copy);
  const index_t n = std::distance(first, last);
  return exec::dispatch(
      policy, n, [&] { return std::reverse_copy(first, last, out); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          for (index_t i = b; i < e; ++i) { out[n - 1 - i] = first[i]; }
        });
        return out + n;
      });
}

template <class It, class Out>
Out rotate_copy(const exec::policy& policy, It first, It middle, It last, Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::rotate_copy);
  const index_t lead = std::distance(middle, last);
  Out tail = copy(policy, middle, last, out);
  copy(policy, first, middle, tail);
  return out + lead + std::distance(first, middle);
}

/// C++20 shift_left: moves [first+n, last) to [first, ...). The source and
/// destination overlap, so the parallel version stages through a buffer
/// (same strategy as rotate); returns the end of the resulting range.
template <class It>
It shift_left(const exec::policy& policy, It first, It last,
              typename std::iterator_traits<It>::difference_type shift) {
  stats::scoped_call pstlb_stats_scope_(stats::op::shift_left);
  using T = typename std::iterator_traits<It>::value_type;
  const index_t n = std::distance(first, last);
  if (shift <= 0) { return last; }
  if (shift >= n) { return first; }
  auto seq = [&] { return std::shift_left(first, last, shift); };
  return exec::dispatch(
      policy, n, seq,
      [&](const backends::backend& be, index_t grain) {
        const index_t kept = n - shift;
        const auto buffer = detail::scratch_buffer<T>(kept);
        if (!buffer) { return seq(); }
        backends::parallel_for(be, kept, grain, [&](index_t b, index_t e, unsigned) {
          std::move(first + shift + b, first + shift + e, buffer.get() + b);
        });
        backends::parallel_for(be, kept, grain, [&](index_t b, index_t e, unsigned) {
          std::move(buffer.get() + b, buffer.get() + e, first + b);
        });
        return first + kept;
      });
}

/// C++20 shift_right: moves [first, last-n) to [first+n, ...); returns the
/// beginning of the resulting range.
template <class It>
It shift_right(const exec::policy& policy, It first, It last,
               typename std::iterator_traits<It>::difference_type shift) {
  stats::scoped_call pstlb_stats_scope_(stats::op::shift_right);
  using T = typename std::iterator_traits<It>::value_type;
  const index_t n = std::distance(first, last);
  if (shift <= 0) { return first; }
  if (shift >= n) { return last; }
  auto seq = [&] { return std::shift_right(first, last, shift); };
  return exec::dispatch(
      policy, n, seq,
      [&](const backends::backend& be, index_t grain) {
        const index_t kept = n - shift;
        const auto buffer = detail::scratch_buffer<T>(kept);
        if (!buffer) { return seq(); }
        backends::parallel_for(be, kept, grain, [&](index_t b, index_t e, unsigned) {
          std::move(first + b, first + e, buffer.get() + b);
        });
        backends::parallel_for(be, kept, grain, [&](index_t b, index_t e, unsigned) {
          std::move(buffer.get() + b, buffer.get() + e, first + shift + b);
        });
        return first + shift;
      });
}

/// adjacent_difference: out[i] = in[i] - in[i-1] (out[0] = in[0]). Each output
/// depends on two *inputs* only, so blocks are independent as long as input
/// and output do not alias in the parallel version (std imposes the same).
/// Parallel rotate: out-of-place rotate_copy into a buffer, then move back.
/// (Real backends do the same; an in-place parallel cycle rotation is not
/// worth the synchronization.)
template <class It>
It rotate(const exec::policy& policy, It first, It middle, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::rotate);
  using T = typename std::iterator_traits<It>::value_type;
  const index_t n = std::distance(first, last);
  const index_t shift = std::distance(first, middle);
  if (shift == 0) { return last; }
  if (shift == n) { return first; }
  auto seq = [&] { return std::rotate(first, middle, last); };
  return exec::dispatch(
      policy, n, seq,
      [&](const backends::backend& be, index_t grain) {
        const auto buffer = detail::scratch_buffer<T>(n);
        if (!buffer) { return seq(); }
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          for (index_t i = b; i < e; ++i) {
            buffer[i] = std::move(first[(i + shift) % n]);
          }
        });
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::move(buffer.get() + b, buffer.get() + e, first + b);
        });
        return first + (n - shift);
      });
}

template <class It, class Out, class Op>
Out adjacent_difference(const exec::policy& policy, It first, It last, Out out, Op op) {
  stats::scoped_call pstlb_stats_scope_(stats::op::adjacent_difference);
  const index_t n = std::distance(first, last);
  return exec::dispatch(
      policy, n, [&] { return std::adjacent_difference(first, last, out, op); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          for (index_t i = b; i < e; ++i) {
            if (i == 0) {
              out[0] = first[0];
            } else {
              out[i] = op(first[i], first[i - 1]);
            }
          }
        });
        return out + n;
      });
}

template <class It, class Out>
Out adjacent_difference(const exec::policy& policy, It first, It last, Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::adjacent_difference);
  return pstlb::adjacent_difference(policy, first, last, out,
                                    std::minus<>{});
}

// --- uninitialized-memory and destruction family --------------------------

template <class It>
void destroy(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::destroy);
  const index_t n = std::distance(first, last);
  exec::dispatch(
      policy, n, [&] { std::destroy(first, last); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::destroy(first + b, first + e);
        });
      });
}

template <class It, class Size>
It destroy_n(const exec::policy& policy, It first, Size count) {
  stats::scoped_call pstlb_stats_scope_(stats::op::destroy_n);
  if (count <= Size{0}) { return first; }
  destroy(policy, first, first + static_cast<index_t>(count));
  return first + static_cast<index_t>(count);
}

template <class It>
void uninitialized_default_construct(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::uninitialized_default_construct);
  const index_t n = std::distance(first, last);
  exec::dispatch(
      policy, n, [&] { std::uninitialized_default_construct(first, last); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::uninitialized_default_construct(first + b, first + e);
        });
      });
}

template <class It>
void uninitialized_value_construct(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::uninitialized_value_construct);
  const index_t n = std::distance(first, last);
  exec::dispatch(
      policy, n, [&] { std::uninitialized_value_construct(first, last); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::uninitialized_value_construct(first + b, first + e);
        });
      });
}

template <class It, class T>
void uninitialized_fill(const exec::policy& policy, It first, It last, const T& value) {
  stats::scoped_call pstlb_stats_scope_(stats::op::uninitialized_fill);
  const index_t n = std::distance(first, last);
  exec::dispatch(
      policy, n, [&] { std::uninitialized_fill(first, last, value); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::uninitialized_fill(first + b, first + e, value);
        });
      });
}

template <class It, class Out>
Out uninitialized_copy(const exec::policy& policy, It first, It last, Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::uninitialized_copy);
  const index_t n = std::distance(first, last);
  return exec::dispatch(
      policy, n, [&] { return std::uninitialized_copy(first, last, out); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::uninitialized_copy(first + b, first + e, out + b);
        });
        return out + n;
      });
}

template <class It, class Out>
Out uninitialized_move(const exec::policy& policy, It first, It last, Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::uninitialized_move);
  const index_t n = std::distance(first, last);
  return exec::dispatch(
      policy, n, [&] { return std::uninitialized_move(first, last, out); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, n, grain, [&](index_t b, index_t e, unsigned) {
          std::uninitialized_move(first + b, first + e, out + b);
        });
        return out + n;
      });
}

}  // namespace pstlb

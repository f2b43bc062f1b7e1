// Scan-family parallel algorithms: prefix sums and the pack-based
// (copy_if / remove / unique / partition_copy) algorithms, all built on the
// single-pass scan and pack skeletons (backends/scan_lookback.hpp). An input
// that fits in one scan chunk takes the sequential path before admission.
#pragma once

#include <algorithm>
#include <functional>
#include <iterator>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "backends/scan_lookback.hpp"
#include "counters/counters.hpp"
#include "pstlb/detail/scratch.hpp"
#include "pstlb/detail/simd/leaf.hpp"
#include "pstlb/exec.hpp"
#include "trace/stats_registry.hpp"

namespace pstlb {

namespace detail {

struct identity_fn;

/// Software traffic accounting for scan/pack regions (no-op outside an
/// active counters::region). Both the sequential path and the skeleton
/// stream the input from DRAM once: the skeleton's second read of a chunk
/// is cache-resident by construction (see lookback_chunk_size).
inline void report_scan_traffic(index_t n_read, index_t n_written,
                                std::size_t in_bytes, std::size_t out_bytes) {
  counters::counter_set work;
  work.bytes_read = static_cast<double>(n_read) * static_cast<double>(in_bytes);
  work.bytes_written =
      static_cast<double>(n_written) * static_cast<double>(out_bytes);
  counters::report_work(work);
}

/// Shared implementation for all eight scan front-ends.
/// `init` is folded in front of the sequence when present. `inclusive`
/// selects whether out[i] includes element i.
template <bool Inclusive, class It, class Out, class T, class Op, class Unary>
Out scan_impl(const exec::policy& policy, It first, It last, Out out,
              std::optional<T> init, Op op, Unary unary) {
  const index_t n = std::distance(first, last);
  if (n == 0) { return out; }

  // Writes out[b, e) from the running prefix before b (empty only at the
  // start of an inclusive scan without init) and returns the prefix after e.
  auto scan_block = [&](index_t b, index_t e, std::optional<T> prefix) {
    for (index_t i = b; i < e; ++i) {
      T value = unary(first[i]);
      if constexpr (Inclusive) {
        T current = prefix.has_value() ? op(std::move(*prefix), std::move(value))
                                       : std::move(value);
        out[i] = current;
        prefix.emplace(std::move(current));
      } else {
        out[i] = *prefix;  // exclusive scans always carry an init
        prefix.emplace(op(std::move(*prefix), std::move(value)));
      }
    }
    return prefix;
  };

  using in_t = typename std::iterator_traits<It>::value_type;
  auto seq = [&] {
    scan_block(0, n, init);
    report_scan_traffic(n, n, sizeof(in_t), sizeof(T));
    return out + n;
  };
  if (backends::fits_one_scan_chunk(n)) { return seq(); }
  return exec::dispatch(
      policy, n, seq,
      [&](const backends::backend& be, index_t) {  // scan chunks, not the grain
        // par_unseq: the up-sweep aggregate pass of a plain plus-scan is a
        // block sum and runs the SIMD reduce_sum kernel (reassociation is
        // licensed under unseq). The down-sweep keeps the ordered serial
        // loop — there is no vectorized running-prefix kernel.
        constexpr bool vec_ok = simd::leaf_eligible_v<T, It> &&
                                simd::is_plus_v<Op, T> &&
                                std::is_same_v<Unary, identity_fn>;
        const simd::kernel_set<T>* vk = nullptr;
        if constexpr (vec_ok) {
          vk = simd::leaf_for<T, It>(policy.unseq);
        }
        auto reduce_block = [&](index_t b, index_t e) {
          if constexpr (vec_ok) {
            if (vk != nullptr) {
              return vk->reduce_sum(std::to_address(first) + b, e - b);
            }
          }
          T acc = unary(first[b]);
          for (index_t i = b + 1; i < e; ++i) {
            acc = op(std::move(acc), unary(first[i]));
          }
          return acc;
        };
        // The first chunk starts from init and every later one from the
        // chained prefix, which therefore holds init exactly once.
        backends::parallel_scan<T>(
            be, n, op, reduce_block,
            [&](index_t b, index_t e, T carry, bool has_carry) {
              return *scan_block(
                  b, e, has_carry ? std::optional<T>(std::move(carry)) : init);
            });
        report_scan_traffic(n, n, sizeof(in_t), sizeof(T));
        return out + n;
      });
}

struct identity_fn {
  template <class X>
  decltype(auto) operator()(X&& x) const {
    return std::forward<X>(x);
  }
};

}  // namespace detail

// --- inclusive_scan -----------------------------------------------------------

template <class It, class Out, class Op, class T>
Out inclusive_scan(const exec::policy& policy, It first, It last, Out out, Op op,
                   T init) {
  stats::scoped_call pstlb_stats_scope_(stats::op::inclusive_scan);
  return detail::scan_impl<true>(policy, first, last, out,
                                 std::optional<T>{std::move(init)}, op,
                                 detail::identity_fn{});
}

template <class It, class Out, class Op>
Out inclusive_scan(const exec::policy& policy, It first, It last, Out out, Op op) {
  stats::scoped_call pstlb_stats_scope_(stats::op::inclusive_scan);
  using T = typename std::iterator_traits<It>::value_type;
  return detail::scan_impl<true>(policy, first, last, out,
                                 std::optional<T>{}, op, detail::identity_fn{});
}

template <class It, class Out>
Out inclusive_scan(const exec::policy& policy, It first, It last, Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::inclusive_scan);
  return pstlb::inclusive_scan(policy, first, last, out,
                               std::plus<>{});
}

// --- exclusive_scan -----------------------------------------------------------

template <class It, class Out, class T, class Op>
Out exclusive_scan(const exec::policy& policy, It first, It last, Out out, T init,
                   Op op) {
  stats::scoped_call pstlb_stats_scope_(stats::op::exclusive_scan);
  return detail::scan_impl<false>(policy, first, last, out,
                                  std::optional<T>{std::move(init)}, op,
                                  detail::identity_fn{});
}

template <class It, class Out, class T>
Out exclusive_scan(const exec::policy& policy, It first, It last, Out out, T init) {
  stats::scoped_call pstlb_stats_scope_(stats::op::exclusive_scan);
  return pstlb::exclusive_scan(policy, first, last, out,
                               std::move(init), std::plus<>{});
}

// --- transform scans ------------------------------------------------------------

template <class It, class Out, class Op, class Unary>
Out transform_inclusive_scan(const exec::policy& policy, It first, It last, Out out,
                             Op op, Unary unary) {
  stats::scoped_call pstlb_stats_scope_(stats::op::transform_inclusive_scan);
  using T = std::decay_t<decltype(unary(*first))>;
  return detail::scan_impl<true>(policy, first, last, out,
                                 std::optional<T>{}, op, unary);
}

template <class It, class Out, class Op, class Unary, class T>
Out transform_inclusive_scan(const exec::policy& policy, It first, It last, Out out,
                             Op op, Unary unary, T init) {
  stats::scoped_call pstlb_stats_scope_(stats::op::transform_inclusive_scan);
  return detail::scan_impl<true>(policy, first, last, out,
                                 std::optional<T>{std::move(init)}, op, unary);
}

template <class It, class Out, class T, class Op, class Unary>
Out transform_exclusive_scan(const exec::policy& policy, It first, It last, Out out,
                             T init, Op op, Unary unary) {
  stats::scoped_call pstlb_stats_scope_(stats::op::transform_exclusive_scan);
  return detail::scan_impl<false>(policy, first, last, out,
                                  std::optional<T>{std::move(init)}, op, unary);
}

// --- pack family (copy_if and friends) -------------------------------------------

template <class It, class Out, class Pred>
Out copy_if(const exec::policy& policy, It first, It last, Out out, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::copy_if);
  using in_t = typename std::iterator_traits<It>::value_type;
  const index_t n = std::distance(first, last);
  auto seq = [&] { return std::copy_if(first, last, out, pred); };
  if (backends::fits_one_scan_chunk(n)) { return seq(); }
  return exec::dispatch(
      policy, n, seq,
      [&](const backends::backend& be, index_t) {
        auto count_block = [&](index_t b, index_t e) {
          return static_cast<index_t>(std::count_if(first + b, first + e, pred));
        };
        auto emit_block = [&](index_t b, index_t e, index_t offset) {
          auto end = std::copy_if(first + b, first + e, out + offset, pred);
          return static_cast<index_t>(end - (out + offset));
        };
        const index_t total = backends::parallel_pack(be, n, count_block, emit_block);
        detail::report_scan_traffic(n, total, sizeof(in_t), sizeof(in_t));
        return out + total;
      });
}

template <class It, class Out, class T>
Out remove_copy(const exec::policy& policy, It first, It last, Out out, const T& value) {
  stats::scoped_call pstlb_stats_scope_(stats::op::remove_copy);
  return pstlb::copy_if(policy, first, last, out,
                        [&value](const auto& x) { return !(x == value); });
}

template <class It, class Out, class Pred>
Out remove_copy_if(const exec::policy& policy, It first, It last, Out out, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::remove_copy_if);
  return pstlb::copy_if(policy, first, last, out,
                        [&pred](const auto& x) { return !pred(x); });
}

template <class It1, class Out1, class Out2, class Pred>
std::pair<Out1, Out2> partition_copy(const exec::policy& policy, It1 first, It1 last,
                                     Out1 out_true, Out2 out_false, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::partition_copy);
  const index_t n = std::distance(first, last);
  auto seq = [&] {
    return std::partition_copy(first, last, out_true, out_false, pred);
  };
  if (backends::fits_one_scan_chunk(n)) { return seq(); }
  return exec::dispatch(
      policy, n, seq,
      [&](const backends::backend& be, index_t) {
        // The pack offset counts matching elements before the chunk; the
        // non-matching offset is derivable as (chunk begin - matching count).
        auto count_block = [&](index_t b, index_t e) {
          return static_cast<index_t>(std::count_if(first + b, first + e, pred));
        };
        auto emit_block = [&](index_t b, index_t e, index_t true_offset) {
          index_t t = true_offset;
          index_t f = b - true_offset;
          for (index_t i = b; i < e; ++i) {
            if (pred(first[i])) {
              out_true[t++] = first[i];
            } else {
              out_false[f++] = first[i];
            }
          }
          return t - true_offset;
        };
        const index_t total_true =
            backends::parallel_pack(be, n, count_block, emit_block);
        return std::pair<Out1, Out2>{out_true + total_true,
                                     out_false + (n - total_true)};
      });
}

/// unique_copy keeps element i iff i == 0 or it differs from element i-1 —
/// a pure function of the *input*, which is what makes the parallel pack
/// legal (unlike in-place unique, which is rewritten via a buffer below).
template <class It, class Out, class Pred>
Out unique_copy(const exec::policy& policy, It first, It last, Out out, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::unique_copy);
  const index_t n = std::distance(first, last);
  if (n == 0) { return out; }
  auto keep = [&](index_t i) { return i == 0 || !pred(first[i - 1], first[i]); };
  auto seq = [&] { return std::unique_copy(first, last, out, pred); };
  if (backends::fits_one_scan_chunk(n)) { return seq(); }
  return exec::dispatch(
      policy, n, seq,
      [&](const backends::backend& be, index_t) {
        auto count_block = [&](index_t b, index_t e) {
          index_t kept = 0;
          for (index_t i = b; i < e; ++i) { kept += keep(i) ? 1 : 0; }
          return kept;
        };
        auto emit_block = [&](index_t b, index_t e, index_t offset) {
          const index_t start = offset;
          for (index_t i = b; i < e; ++i) {
            if (keep(i)) { out[offset++] = first[i]; }
          }
          return offset - start;
        };
        return out + backends::parallel_pack(be, n, count_block, emit_block);
      });
}

template <class It, class Out>
Out unique_copy(const exec::policy& policy, It first, It last, Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::unique_copy);
  return pstlb::unique_copy(policy, first, last, out,
                            std::equal_to<>{});
}

// --- in-place removals (buffer + move back, as real backends do) -----------------

template <class It, class Pred>
It remove_if(const exec::policy& policy, It first, It last, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::remove_if);
  using T = typename std::iterator_traits<It>::value_type;
  const index_t n = std::distance(first, last);
  auto seq = [&] { return std::remove_if(first, last, pred); };
  if (backends::fits_one_scan_chunk(n)) { return seq(); }
  return exec::dispatch(
      policy, n, seq,
      [&](const backends::backend&, index_t) {
        auto kept = detail::scratch_buffer<T>(n);
        if (!kept.has_value()) { return seq(); }
        auto end_kept = pstlb::remove_copy_if(policy, first, last, kept->begin(), pred);
        const index_t count = end_kept - kept->begin();
        pstlb::move(policy, kept->begin(), kept->begin() + count, first);
        return first + count;
      });
}

template <class It, class T>
It remove(const exec::policy& policy, It first, It last, const T& value) {
  stats::scoped_call pstlb_stats_scope_(stats::op::remove);
  return pstlb::remove_if(policy, first, last,
                          [&value](const auto& x) { return x == value; });
}

template <class It, class Pred>
It unique(const exec::policy& policy, It first, It last, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::unique);
  using T = typename std::iterator_traits<It>::value_type;
  const index_t n = std::distance(first, last);
  auto seq = [&] { return std::unique(first, last, pred); };
  if (backends::fits_one_scan_chunk(n)) { return seq(); }
  return exec::dispatch(
      policy, n, seq,
      [&](const backends::backend&, index_t) {
        auto kept = detail::scratch_buffer<T>(n);
        if (!kept.has_value()) { return seq(); }
        auto end_kept = pstlb::unique_copy(policy, first, last, kept->begin(), pred);
        const index_t count = end_kept - kept->begin();
        pstlb::move(policy, kept->begin(), kept->begin() + count, first);
        return first + count;
      });
}

template <class It>
It unique(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::unique);
  return pstlb::unique(policy, first, last, std::equal_to<>{});
}

}  // namespace pstlb

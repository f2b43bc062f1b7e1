// Sort-family parallel algorithms.
//
// sort / stable_sort pick their path by the input alone: at most
// detail::sort_seq_cutoff elements sort sequentially before admission, and
// larger inputs take one of two parallel pipelines
// (detail::parallel_sort_dispatch: the value type, then the size):
//
//   - samplesort (pstlb/detail/samplesort.hpp): counting distribution into
//     cache-sized buckets, each distributed once more in cache before
//     insertion sorts finish sub-buckets of at most 64 keys — a constant
//     number of full-array passes regardless of thread count; runs from
//     detail::sample_sort_min elements up.
//   - mergesort (below): block sort + pairwise merge rounds, every merge
//     split at merge-path diagonals into independent sub-merges (see
//     pstlb/detail/merge.hpp) — log2(P) full passes. It is the one
//     mergesort on every policy: the mid-size path and the path of value
//     types samplesort cannot take. (GNU's single R-way merge round lives
//     on only in the simulator's model of GCC-GNU.)
//
// Both pipelines are plain parallel_for/scan launches, so they run on every
// backend, and both stage elements through detail::scratch_buffer: when it
// cannot allocate, the call counts one oom shed and std::sort /
// std::stable_sort sorts the input. Requirements beyond the std versions
// (documented limitation): the out-of-place buffer needs default-
// constructible, move-assignable value types; samplesort additionally needs
// copy-constructible values (materialized splitters), and types that are
// not take the mergesort.
#pragma once

#include <algorithm>
#include <functional>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "backends/scan_lookback.hpp"
#include "pstlb/detail/merge.hpp"
#include "pstlb/detail/samplesort.hpp"
#include "pstlb/detail/scratch.hpp"
#include "pstlb/detail/sort_stats.hpp"
#include "pstlb/exec.hpp"
#include "trace/stats_registry.hpp"

namespace pstlb {

namespace detail {

/// Inputs of at most this many elements sort with std::sort /
/// std::stable_sort on the caller, before admission, whatever the policy's
/// seq_threshold: on a 4-core host the 4-wide mergesort lost to std::sort
/// at 2^10 and 2^11 doubles on every backend and won from 2^12.
inline constexpr index_t sort_seq_cutoff = index_t{1} << 11;

/// Inputs of at least this many elements take samplesort; smaller ones keep
/// the mergesort, whose merge rounds stay cache-resident at that scale and
/// which skips splitter selection and bucket bookkeeping.
inline constexpr index_t sample_sort_min = index_t{1} << 16;

struct sub_merge {
  index_t a0, a1, b0, b1, out;
};

template <bool Stable, class It, class Compare>
void parallel_mergesort(const backends::backend& be, It first, index_t n,
                        Compare comp) {
  using T = typename std::iterator_traits<It>::value_type;
  if (n < 2) { return; }
  auto& stats = begin_sort_traffic("merge", n, sizeof(T));
  const double pass_bytes = static_cast<double>(n) * sizeof(T);

  // Initial run count: a power of two near 2x the participant count, shrunk
  // so runs never get degenerately small.
  index_t runs = 1;
  while (runs < static_cast<index_t>(be.threads()) * 2) { runs <<= 1; }
  while (runs > 1 && ceil_div(n, runs) < 32) { runs >>= 1; }
  const index_t run_len = ceil_div(n, runs);
  runs = ceil_div(n, run_len);

  // Phase 1: sort each run independently.
  {
    sort_phase_span span(0);
    backends::parallel_for(be, runs, index_t{1},
                           [&](index_t rb, index_t re, unsigned) {
      for (index_t r = rb; r < re; ++r) {
        const index_t b = r * run_len;
        const index_t e = std::min(n, b + run_len);
        std_sort<Stable>(first + b, first + e, comp);
      }
    });
    stats.block_sort.read += pass_bytes;
    stats.block_sort.written += pass_bytes;
  }
  if (runs == 1) {
    commit_sort_traffic(stats);
    return;
  }

  // The merge rounds need an out-of-place scratch buffer of n elements. If
  // memory is too tight for it, degrade to a whole-array sequential sort:
  // safe here because the phase-1 run sorts are in-place and already
  // complete, so the input holds all elements (partially ordered, which the
  // std sort tolerates).
  const auto scratch = scratch_buffer<T>(n);
  if (!scratch) {
    std_sort<Stable>(first, first + n, comp);
    commit_sort_traffic(stats);
    return;
  }
  T* const buffer = scratch.get();

  // Phase 2: pairwise merge rounds, ping-ponging the buffer.
  bool in_buffer = false;

  const index_t per_task = std::max<index_t>(
      index_t{1}, ceil_div(n, static_cast<index_t>(be.threads()) * 4));

  auto do_round = [&](auto src, auto dst, index_t width) {
    std::vector<sub_merge> jobs;
    for (index_t base = 0; base < runs; base += 2 * width) {
      const index_t ab = std::min(n, base * run_len);
      const index_t ae = std::min(n, (base + width) * run_len);
      const index_t bb = ae;
      const index_t bend = std::min(n, (base + 2 * width) * run_len);
      const index_t len_a = ae - ab;
      const index_t len_b = bend - bb;
      if (len_a + len_b == 0) { continue; }
      if (len_b == 0) {
        // Odd tail: carry the run across to keep all live data in `dst`.
        for (index_t cb = ab; cb < ae; cb += per_task) {
          jobs.push_back({cb, std::min(ae, cb + per_task), bb, bb, cb});
        }
        continue;
      }
      const index_t parts = std::max<index_t>(1, ceil_div(len_a + len_b, per_task));
      for (const auto& piece :
           make_merge_parts(src + ab, len_a, src + bb, len_b, parts, comp)) {
        jobs.push_back({ab + piece.a0, ab + piece.a1, bb + piece.b0, bb + piece.b1,
                        ab + piece.a0 + piece.b0});
      }
    }
    backends::parallel_for(
        be, static_cast<index_t>(jobs.size()), index_t{1},
        [&](index_t jb, index_t je, unsigned) {
          for (index_t j = jb; j < je; ++j) {
            const sub_merge& job = jobs[static_cast<std::size_t>(j)];
            if (job.b0 == job.b1) {
              std::move(src + job.a0, src + job.a1, dst + job.out);
            } else {
              std::merge(std::make_move_iterator(src + job.a0),
                         std::make_move_iterator(src + job.a1),
                         std::make_move_iterator(src + job.b0),
                         std::make_move_iterator(src + job.b1), dst + job.out, comp);
            }
          }
        });
  };

  for (index_t width = 1; width < runs; width *= 2) {
    sort_phase_span span(static_cast<std::uint64_t>(stats.merge_round_count) + 1);
    if (!in_buffer) {
      do_round(first, buffer, width);
    } else {
      do_round(buffer, first, width);
    }
    in_buffer = !in_buffer;
    stats.merge_rounds.read += pass_bytes;
    stats.merge_rounds.written += pass_bytes;
    stats.merge_round_count += 1;
  }
  if (in_buffer) {
    sort_phase_span span(static_cast<std::uint64_t>(stats.merge_round_count) + 1);
    backends::parallel_for(be, n, [&](index_t b, index_t e, unsigned) {
      std::move(buffer + b, buffer + e, first + b);
    });
    stats.merge_rounds.read += pass_bytes;
    stats.merge_rounds.written += pass_bytes;
    stats.merge_round_count += 1;
  }
  commit_sort_traffic(stats);
}

/// Routes a parallel sort to samplesort (n >= sample_sort_min) or mergesort.
/// Samplesort materializes splitter copies, so types that are not
/// copy-constructible silently keep the mergesort pipeline.
template <bool Stable, class It, class Compare>
void parallel_sort_dispatch(const backends::backend& be, It first, index_t n,
                            Compare comp) {
  using T = typename std::iterator_traits<It>::value_type;
  if constexpr (std::is_copy_constructible_v<T>) {
    if (n >= sample_sort_min) {
      parallel_samplesort<Stable>(be, first, n, comp);
      return;
    }
  }
  parallel_mergesort<Stable>(be, first, n, comp);
}

}  // namespace detail

template <class It, class Compare>
void sort(const exec::policy& policy, It first, It last, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::sort);
  const index_t n = std::distance(first, last);
  if (n <= detail::sort_seq_cutoff) { return std::sort(first, last, comp); }
  exec::dispatch(
      policy, n, [&] { std::sort(first, last, comp); },
      [&](const backends::backend& be, index_t) {
        detail::parallel_sort_dispatch<false>(be, first, n, comp);
      });
}

template <class It>
void sort(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::sort);
  pstlb::sort(policy, first, last, std::less<>{});
}

template <class It, class Compare>
void stable_sort(const exec::policy& policy, It first, It last, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::stable_sort);
  const index_t n = std::distance(first, last);
  if (n <= detail::sort_seq_cutoff) { return std::stable_sort(first, last, comp); }
  exec::dispatch(
      policy, n, [&] { std::stable_sort(first, last, comp); },
      [&](const backends::backend& be, index_t) {
        detail::parallel_sort_dispatch<true>(be, first, n, comp);
      });
}

template <class It>
void stable_sort(const exec::policy& policy, It first, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::stable_sort);
  pstlb::stable_sort(policy, first, last, std::less<>{});
}

template <class It1, class It2, class Out, class Compare>
Out merge(const exec::policy& policy, It1 first1, It1 last1, It2 first2, It2 last2,
          Out out, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::merge);
  const index_t n1 = std::distance(first1, last1);
  const index_t n2 = std::distance(first2, last2);
  return exec::dispatch(
      policy, n1 + n2,
      [&] { return std::merge(first1, last1, first2, last2, out, comp); },
      [&](const backends::backend& be, index_t) {
        detail::parallel_merge_into(be, first1, n1, first2, n2, out, comp);
        return out + n1 + n2;
      });
}

template <class It1, class It2, class Out>
Out merge(const exec::policy& policy, It1 first1, It1 last1, It2 first2, It2 last2,
          Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::merge);
  return pstlb::merge(policy, first1, last1, first2, last2, out,
                      std::less<>{});
}

template <class It, class Compare>
void inplace_merge(const exec::policy& policy, It first, It middle, It last,
                   Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::inplace_merge);
  using T = typename std::iterator_traits<It>::value_type;
  const index_t n = std::distance(first, last);
  auto seq = [&] { std::inplace_merge(first, middle, last, comp); };
  exec::dispatch(
      policy, n, seq,
      [&](const backends::backend& be, index_t) {
        const auto scratch = detail::scratch_buffer<T>(n);
        if (!scratch) { return seq(); }
        T* const buffer = scratch.get();
        const index_t n1 = std::distance(first, middle);
        detail::parallel_merge_into(be, std::make_move_iterator(first), n1,
                                    std::make_move_iterator(middle), n - n1,
                                    buffer, comp);
        backends::parallel_for(be, n, [&](index_t b, index_t e, unsigned) {
          std::move(buffer + b, buffer + e, first + b);
        });
      });
}

template <class It>
void inplace_merge(const exec::policy& policy, It first, It middle, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::inplace_merge);
  pstlb::inplace_merge(policy, first, middle, last, std::less<>{});
}

// --- partitioning -------------------------------------------------------------

template <class It, class Pred>
It stable_partition(const exec::policy& policy, It first, It last, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::stable_partition);
  using T = typename std::iterator_traits<It>::value_type;
  const index_t n = std::distance(first, last);
  auto seq = [&] { return std::stable_partition(first, last, pred); };
  if (backends::fits_one_scan_chunk(n)) { return seq(); }
  return exec::dispatch(
      policy, n, seq,
      [&](const backends::backend& be, index_t) {
        // One n-slot buffer filled from both ends by the single-pass pack,
        // which never knows the overall true count while it emits: true
        // element t goes to slot t, false element f to slot n-1-f. The
        // move back reads the false slots in reverse, restoring their order.
        const auto scratch = detail::scratch_buffer<T>(n);
        if (!scratch) { return seq(); }
        T* const buffer = scratch.get();
        const index_t count_true = backends::parallel_pack(
            be, n,
            [&](index_t b, index_t e) {
              return static_cast<index_t>(std::count_if(first + b, first + e, pred));
            },
            [&](index_t b, index_t e, index_t true_offset) {
              index_t t = true_offset;
              index_t f = b - true_offset;  // false elements before the chunk
              for (index_t i = b; i < e; ++i) {
                if (pred(first[i])) {
                  buffer[t++] = std::move(first[i]);
                } else {
                  buffer[n - 1 - f++] = std::move(first[i]);
                }
              }
              return t - true_offset;
            });
        backends::parallel_for(be, n, [&](index_t b, index_t e, unsigned) {
          for (index_t i = b; i < e; ++i) {
            const index_t from = i < count_true ? i : n - 1 - (i - count_true);
            first[i] = std::move(buffer[from]);
          }
        });
        return first + count_true;
      });
}

/// partition has no stability requirement; the stable implementation is a
/// valid (and parallel-friendly) one.
template <class It, class Pred>
It partition(const exec::policy& policy, It first, It last, Pred pred) {
  stats::scoped_call pstlb_stats_scope_(stats::op::partition);
  return pstlb::stable_partition(policy, first, last, pred);
}

// --- order statistics ------------------------------------------------------------
//
// nth_element and partial_sort permit any implementation whose postcondition
// holds; a full parallel sort satisfies both (the tail order of partial_sort
// and both sides of nth_element are "unspecified", and sorted is a valid
// instance of unspecified). This is also what NVC++'s stdpar does for
// nth_element on GPUs.

template <class It, class Compare>
void nth_element(const exec::policy& policy, It first, It nth, It last, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::nth_element);
  if (first == last || nth == last) { return; }
  pstlb::sort(policy, first, last, comp);
}

template <class It>
void nth_element(const exec::policy& policy, It first, It nth, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::nth_element);
  pstlb::nth_element(policy, first, nth, last, std::less<>{});
}

template <class It, class Compare>
void partial_sort(const exec::policy& policy, It first, It middle, It last,
                  Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::partial_sort);
  if (first == middle) { return; }
  pstlb::sort(policy, first, last, comp);
}

template <class It>
void partial_sort(const exec::policy& policy, It first, It middle, It last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::partial_sort);
  pstlb::partial_sort(policy, first, middle, last, std::less<>{});
}

template <class It, class RIt, class Compare>
RIt partial_sort_copy(const exec::policy& policy, It first, It last, RIt d_first,
                      RIt d_last, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::partial_sort_copy);
  const index_t n = std::distance(first, last);
  const index_t m = std::distance(d_first, d_last);
  const index_t k = std::min(n, m);
  if (k <= 0) { return d_first; }
  auto seq = [&] {
    return std::partial_sort_copy(first, last, d_first, d_last, comp);
  };
  return exec::dispatch(
      policy, n, seq,
      [&](const backends::backend&, index_t) {
        using T = typename std::iterator_traits<It>::value_type;
        const auto scratch = detail::scratch_buffer<T>(n);
        if (!scratch) { return seq(); }
        T* const buffer = scratch.get();
        pstlb::copy(policy, first, last, buffer);
        pstlb::sort(policy, buffer, buffer + n, comp);
        pstlb::copy(policy, buffer, buffer + k, d_first);
        return d_first + k;
      });
}

template <class It, class RIt>
RIt partial_sort_copy(const exec::policy& policy, It first, It last, RIt d_first,
                      RIt d_last) {
  stats::scoped_call pstlb_stats_scope_(stats::op::partial_sort_copy);
  return pstlb::partial_sort_copy(policy, first, last, d_first,
                                  d_last, std::less<>{});
}

}  // namespace pstlb

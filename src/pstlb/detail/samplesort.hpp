// Cache/bandwidth-efficient parallel samplesort (PBBS-style counting sort
// over sampled splitters).
//
// The merge-round mergesort in algo_sort.hpp re-reads and re-writes the
// whole array once per pairwise round — log2(P) full passes, which is
// exactly what caps sort speedup on the bandwidth-bound machines the paper
// studies (Fig. 7: only GNU's single-round multiway merge stays efficient at
// high thread counts). Samplesort does the whole distribution in a constant
// number of passes regardless of thread count:
//
//   1. SAMPLE    pick oversample*B deterministic samples, sort them, take
//                every oversample-th as a splitter (B-1 splitters, B
//                buckets). O(B log B) work on the calling thread.
//   2. CLASSIFY  chunked parallel pass: each chunk classifies its elements
//                a block at a time by a branch-free descent of the splitter
//                tree (splitter_tree) and counts, per bucket, how many land
//                there (per-chunk histograms; one streaming read of the
//                input).
//   3. OFFSETS   exclusive prefix over the bucket-major (bucket, chunk)
//                histogram matrix through the decoupled-lookback scan
//                skeleton — every (bucket, chunk) cell becomes the exact
//                scatter offset of that chunk's slice of that bucket.
//   4. SCATTER   chunked parallel pass: re-classify each block the same way
//                and move each element to its slot in the scratch buffer
//                (one read + one write).
//                Chunk-ordered offsets make the scatter stable: within a
//                bucket, chunk c's elements precede chunk c+1's, and a chunk
//                emits in element order.
//   5. BUCKETS   parallel over buckets (grain 1, so the backend's scheduler
//                balances skewed buckets): sort each bucket — cache-resident
//                by construction of the bucket cap — and move it back to its
//                final position in the input range. A bucket that overflows
//                the cap (skewed splitters) is either all-equal (already
//                grouped; moved back untouched) or recursed through the same
//                pipeline once, sequentially, before the leaf sort.
//
// DRAM traffic: ~3 input reads (classify, scatter, bucket load) and ~2
// writes (scatter, move-back) — constant in P, vs mergesort's 1 + log2(2P)
// read+write rounds. The fig7 native comparison prints both from the
// sort_stats snapshot so the pass-count argument is measured, not asserted.
//
// Stability: the tree descent computes std::upper_bound's rank for any
// comparator, so equal keys share a bucket; the scatter is chunk- and
// element-ordered, and the stable variant uses std::stable_sort leaves — so
// pstlb::stable_sort can run on this path.
//
// Failure: phases 2, 4 and 5 are plain for_blocks launches, so the pools'
// cancellation protocol (PR 4) already guarantees exactly-one-exception and
// no stranded peers; phase 3 inherits the scan's poisoned-descriptor
// protocol — a throwing classification chunk can never leave an offset
// consumer spinning. Fault-injection hooks fire at every chunk boundary via
// the backends' standard chunk hook.
//
// Requirements beyond mergesort's (default-constructible + move-assignable):
// value types must be copy-constructible, because splitters are materialized
// copies that must survive while the source array is permuted underneath
// them. The front-end gates on this and falls back to mergesort otherwise.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "backends/scan_lookback.hpp"
#include "backends/skeletons.hpp"
#include "numa/first_touch_allocator.hpp"
#include "pstlb/detail/sort_stats.hpp"
#include "sched/arena.hpp"
#include "trace/trace.hpp"

namespace pstlb::detail {

/// Samplesort tunables. The front-ends use the defaults; tests pass smaller
/// values to force the recursion paths.
struct samplesort_params {
  /// Elements per bucket above which a bucket is recursed (and below which
  /// its sort is assumed cache-resident).
  index_t bucket_cap = index_t{1} << 15;
  /// Samples per splitter.
  index_t oversample = 32;
};

/// The sorted splitters laid out as a complete binary search tree in
/// Eytzinger order (slot k's children are 2k + 1 and 2k + 2), so classifying
/// a key is a descent whose next slot is computed, not branched to. The tree
/// has 2^levels - 1 slots; the slots past the last splitter repeat it, which
/// keeps the in-order sequence sorted under any comparator without a
/// sentinel the key type may not have. A descent counts the slots x with
/// !comp(key, x): a key below the largest splitter counts no padding, and a
/// key at or above it counts every slot, which the clamp to the splitter
/// count maps to the last bucket. The rank is therefore std::upper_bound's.
template <class T>
class splitter_tree {
 public:
  /// `sorted` holds at least one splitter, ascending under the comparator
  /// classify() is given.
  explicit splitter_tree(std::span<const T> sorted)
      : splitters_(static_cast<index_t>(sorted.size())) {
    while ((index_t{1} << levels_) - 1 < splitters_) { ++levels_; }
    const std::size_t slots = (std::size_t{1} << levels_) - 1;
    tree_.reserve(slots);
    for (std::size_t k = 0; k < slots; ++k) {
      // Slot k is the (k + 1 - 2^depth)-th on its level; its in-order
      // position follows from the height of the subtree below it.
      const int depth = std::bit_width(k + 1) - 1;
      const std::size_t left = k + 1 - (std::size_t{1} << depth);
      const std::size_t pos = ((2 * left + 1) << (levels_ - 1 - depth)) - 1;
      tree_.push_back(sorted[std::min(pos, sorted.size() - 1)]);
    }
  }

  const T* data() const { return tree_.data(); }
  int levels() const { return levels_; }

  /// out[i] = std::upper_bound(splitters, keys[i], comp) rank for i in
  /// [0, len). Eight descents run interleaved, so their tree loads overlap
  /// instead of each waiting for the previous level's.
  template <class It, class Compare>
  void classify(It keys, index_t len, Compare comp, std::uint32_t* out) const {
    constexpr index_t lanes = 8;
    const index_t whole = len - len % lanes;
    index_t i = 0;
    for (; i < whole; i += lanes) {
      std::array<index_t, lanes> k{};
      for (int l = 0; l < levels_; ++l) {
        for (index_t j = 0; j < lanes; ++j) {
          auto& kj = k[static_cast<std::size_t>(j)];
          kj = 2 * kj + 1 + !comp(keys[i + j], tree_[static_cast<std::size_t>(kj)]);
        }
      }
      for (index_t j = 0; j < lanes; ++j) {
        out[i + j] = rank(k[static_cast<std::size_t>(j)]);
      }
    }
    for (; i < len; ++i) {
      index_t k = 0;
      for (int l = 0; l < levels_; ++l) {
        k = 2 * k + 1 + !comp(keys[i], tree_[static_cast<std::size_t>(k)]);
      }
      out[i] = rank(k);
    }
  }

 private:
  std::uint32_t rank(index_t leaf) const {
    return static_cast<std::uint32_t>(
        std::min(leaf - static_cast<index_t>(tree_.size()), splitters_));
  }

  index_t splitters_;
  int levels_ = 0;
  std::vector<T> tree_;
};

/// splitmix64 over a fixed seed: splitter sampling is deterministic, so a
/// given (input, params) pair always picks the same splitters and a failing
/// run replays identically.
inline std::uint64_t samplesort_draw(std::uint64_t site) {
  std::uint64_t z = site + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Bucket count for a segment of `n` elements: aim for half-cap buckets so
/// the average bucket has slack before the recursion cap, keep at least 4
/// buckets per thread for balance, and bound the splitter search depth.
inline index_t samplesort_buckets(index_t n, unsigned threads,
                                  index_t bucket_cap) {
  constexpr index_t max_buckets = 4096;
  index_t want = ceil_div(2 * n, bucket_cap);
  const index_t par = static_cast<index_t>(threads) * 4;
  if (want < par) { want = par; }
  if (want > max_buckets) { want = max_buckets; }
  if (want > n / 32) { want = n / 32; }  // never degenerate buckets
  return want;
}

/// One sort-phase trace span on the dedicated sort track; `phase` is the
/// pipeline position (0 = sample, 1 = classify, 2 = scatter, 3 = buckets).
class sort_phase_span {
 public:
  explicit sort_phase_span(std::uint64_t phase)
      : phase_(phase), t0_(trace::span_begin()) {}
  ~sort_phase_span() {
    trace::record_span(trace::pool_id::sort, trace::event_kind::phase, t0_,
                       phase_);
  }
  sort_phase_span(const sort_phase_span&) = delete;
  sort_phase_span& operator=(const sort_phase_span&) = delete;

 private:
  std::uint64_t phase_;
  std::uint64_t t0_;
};

/// Sorts [src, src + n) with [tmp, tmp + n) as scratch; the result ends in
/// src. `depth` 0 is the parallel top-level call; overflowing buckets
/// recurse exactly once at depth 1 on the sequential backend, by choice:
/// they run inside the bucket loop, which already keeps its team busy, so a
/// nested region would find no idle workers to claim.
/// `stats` is non-null only at the top level — recursion traffic rides on
/// the bucket phase's accounting.
template <bool Stable, class SrcIt, class TmpIt, class Compare>
void samplesort_segment(const backends::backend& be, SrcIt src, TmpIt tmp, index_t n,
                        Compare comp, const samplesort_params& params,
                        int depth, sort_traffic_stats* stats) {
  using T = typename std::iterator_traits<SrcIt>::value_type;
  const double elem_bytes = static_cast<double>(sizeof(T));

  auto leaf_sort = [&](auto first, auto last) {
    if constexpr (Stable) {
      std::stable_sort(first, last, comp);
    } else {
      std::sort(first, last, comp);
    }
  };

  const index_t bucket_count =
      samplesort_buckets(n, be.threads(), params.bucket_cap);
  if (n < 2 || bucket_count < 2) {
    leaf_sort(src, src + n);
    return;
  }

  // --- phase 0: splitter selection ------------------------------------------
  // Oversampling narrows the spread of bucket sizes: with s samples per
  // splitter the expected maximum bucket is within a small constant of the
  // mean (Blelloch et al.), which is what keeps the recursion rare.
  std::vector<T> splitters;
  {
    sort_phase_span span(0);
    const index_t samples =
        std::min(n, params.oversample * (bucket_count - 1) + 1);
    std::vector<T> sample;
    sample.reserve(static_cast<std::size_t>(samples));
    for (index_t i = 0; i < samples; ++i) {
      const auto pick = static_cast<index_t>(
          samplesort_draw(static_cast<std::uint64_t>(i) +
                          (static_cast<std::uint64_t>(depth) << 32)) %
          static_cast<std::uint64_t>(n));
      sample.push_back(src[pick]);
    }
    std::sort(sample.begin(), sample.end(), comp);
    splitters.reserve(static_cast<std::size_t>(bucket_count - 1));
    for (index_t k = 1; k < bucket_count; ++k) {
      splitters.push_back(sample[static_cast<std::size_t>(
          k * samples / bucket_count)]);
    }
    if (stats != nullptr) {
      stats->sample.read += static_cast<double>(samples) * elem_bytes;
    }
  }

  const splitter_tree<T> tree(splitters);
  // Bucket ids of one block of keys, shared by the histogram and scatter
  // passes; 512 ids fit on the stack.
  constexpr index_t classify_block = 512;
  using block_ids = std::array<std::uint32_t, classify_block>;

  // --- phase 1: per-chunk bucket histograms ---------------------------------
  const backends::chunk_table chunks(n, be.threads());
  const index_t chunk_count = chunks.count;
  // Bucket-major layout hist[b * chunk_count + c]: the offsets scan below
  // walks it contiguously in exactly scatter order.
  std::vector<index_t> hist(
      static_cast<std::size_t>(bucket_count * chunk_count), 0);
  {
    sort_phase_span span(1);
    backends::parallel_for(be, chunk_count, index_t{1},
                           [&](index_t cb, index_t ce, unsigned) {
      std::vector<index_t> local(static_cast<std::size_t>(bucket_count));
      block_ids ids{};
      for (index_t c = cb; c < ce; ++c) {
        std::fill(local.begin(), local.end(), index_t{0});
        index_t b = 0;
        index_t e = 0;
        chunks.bounds(c, b, e);
        for (index_t i = b; i < e; i += classify_block) {
          const index_t len = std::min(classify_block, e - i);
          tree.classify(src + i, len, comp, ids.data());
          for (index_t j = 0; j < len; ++j) {
            ++local[ids[static_cast<std::size_t>(j)]];
          }
        }
        for (index_t bk = 0; bk < bucket_count; ++bk) {
          hist[static_cast<std::size_t>(bk * chunk_count + c)] =
              local[static_cast<std::size_t>(bk)];
        }
      }
    });
    if (stats != nullptr) {
      stats->classify.read += static_cast<double>(n) * elem_bytes;
    }
  }

  // --- phase 2: scatter offsets via the lookback scan machinery -------------
  // Exclusive prefix over the bucket-major histogram: cell (b, c) becomes
  // the index where chunk c's slice of bucket b starts in the scratch
  // buffer. Cheap relative to the element passes, but on wide machines the
  // matrix is tens of thousands of cells — the same single-pass skeleton the
  // scan family uses covers both regimes (and its poisoned-descriptor
  // protocol keeps a mid-scan failure from deadlocking peers).
  const index_t cells = bucket_count * chunk_count;
  std::vector<index_t> offsets(static_cast<std::size_t>(cells));
  backends::parallel_scan<index_t>(
      be, cells, [](index_t a, index_t b) { return a + b; },
      [&](index_t b, index_t e) {
        index_t sum = 0;
        for (index_t i = b; i < e; ++i) { sum += hist[static_cast<std::size_t>(i)]; }
        return sum;
      },
      [&](index_t b, index_t e, index_t carry, bool has_carry) {
        index_t running = has_carry ? carry : 0;
        for (index_t i = b; i < e; ++i) {
          offsets[static_cast<std::size_t>(i)] = running;
          running += hist[static_cast<std::size_t>(i)];
        }
        return running;
      });

  // --- phase 3: stable parallel scatter -------------------------------------
  {
    sort_phase_span span(2);
    backends::parallel_for(be, chunk_count, index_t{1},
                           [&](index_t cb, index_t ce, unsigned) {
      std::vector<index_t> cursor(static_cast<std::size_t>(bucket_count));
      block_ids ids{};
      for (index_t c = cb; c < ce; ++c) {
        for (index_t bk = 0; bk < bucket_count; ++bk) {
          cursor[static_cast<std::size_t>(bk)] =
              offsets[static_cast<std::size_t>(bk * chunk_count + c)];
        }
        index_t b = 0;
        index_t e = 0;
        chunks.bounds(c, b, e);
        for (index_t i = b; i < e; i += classify_block) {
          const index_t len = std::min(classify_block, e - i);
          tree.classify(src + i, len, comp, ids.data());
          for (index_t j = 0; j < len; ++j) {
            auto& slot = cursor[ids[static_cast<std::size_t>(j)]];
            tmp[slot++] = std::move(src[i + j]);
          }
        }
      }
    });
    if (stats != nullptr) {
      stats->scatter.read += static_cast<double>(n) * elem_bytes;
      stats->scatter.written += static_cast<double>(n) * elem_bytes;
    }
  }

  // --- phase 4: per-bucket sort + move back ---------------------------------
  {
    sort_phase_span span(3);
    backends::parallel_for(be, bucket_count, index_t{1},
                           [&](index_t bb, index_t be_, unsigned) {
      for (index_t bk = bb; bk < be_; ++bk) {
        const index_t s = offsets[static_cast<std::size_t>(bk * chunk_count)];
        const index_t e = bk + 1 < bucket_count
                              ? offsets[static_cast<std::size_t>(
                                    (bk + 1) * chunk_count)]
                              : n;
        if (s == e) { continue; }
        if (e - s > params.bucket_cap && depth == 0) {
          // Overflowing bucket: either every key is equal (classification
          // already grouped and the stable scatter already ordered them — no
          // sort needed, which also defuses the all-equal-input worst case)
          // or the splitters were unlucky and one sequential re-run of the
          // pipeline splits it before the leaf sorts.
          const bool all_equal = [&] {
            for (index_t i = s + 1; i < e; ++i) {
              if (comp(tmp[i - 1], tmp[i]) || comp(tmp[i], tmp[i - 1])) {
                return false;
              }
            }
            return true;
          }();
          if (!all_equal) {
            samplesort_segment<Stable>(backends::backend{}, tmp + s,
                                       src + s, e - s, comp, params, 1,
                                       nullptr);
          }
        } else {
          leaf_sort(tmp + s, tmp + e);
        }
        std::move(tmp + s, tmp + e, src + s);
      }
    });
    if (stats != nullptr) {
      stats->buckets.read += static_cast<double>(n) * elem_bytes;
      stats->buckets.written += static_cast<double>(n) * elem_bytes;
    }
  }
}

/// Top-level entry: allocates the scatter buffer through the first-touch
/// allocator on `be` — the backend and width this call was granted — so
/// bucket pages spread across the NUMA nodes of the threads that will sort
/// them (paper Listing 5 discipline) and the touch region runs no wider than
/// the sort's own regions. Runs the pipeline with `params`, and publishes the
/// traffic snapshot + region counters.
///
/// Returns false when the scatter buffer cannot be allocated — the one big
/// contiguous bite of memory this sort takes, and the only allocation before
/// any element moves, so the input is still intact and the caller falls back
/// to the merge pipeline (or all the way to a sequential sort) instead of
/// letting std::bad_alloc escape from pstlb::sort.
template <bool Stable, class It, class Compare>
bool parallel_samplesort(const backends::backend& be, It first, index_t n,
                         Compare comp, const samplesort_params& params = {}) {
  using T = typename std::iterator_traits<It>::value_type;
  using alloc_t = numa::first_touch_allocator<T, exec::policy>;
  // optional-wrapped so the fallback needs no allocator move-assignment;
  // the oom:p fault hook fires inside the allocator's tracked allocation.
  std::optional<std::vector<T, alloc_t>> buffer;
  try {
    buffer.emplace(static_cast<std::size_t>(n),
                   alloc_t{exec::make_policy(be.id(), be.threads())});
  } catch (const std::bad_alloc&) {
    sched::note_degradation(sched::shed_reason::oom);
    return false;
  }
  auto& stats = begin_sort_traffic("sample", n, sizeof(T));
  samplesort_segment<Stable>(be, first, buffer->begin(), n, comp, params, 0,
                             &stats);
  commit_sort_traffic(stats);
  return true;
}

}  // namespace pstlb::detail

// Cache/bandwidth-efficient parallel samplesort: PBBS-style counting passes
// over sampled splitters, with a second, in-cache distribution of every
// bucket (super scalar sample sort, Sanders & Winkel, ESA 2004).
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
//                tree (splitter_tree), records each key's bucket id in an
//                id array (1 byte up to 256 buckets, 2 bytes above) and
//                counts, per bucket, how many land there (per-chunk
//                histograms; one streaming read of the input).
//   3. OFFSETS   exclusive prefix over the bucket-major (bucket, chunk)
//                histogram matrix through the decoupled-lookback scan
//                skeleton — every (bucket, chunk) cell becomes the exact
//                scatter offset of that chunk's slice of that bucket.
//   4. SCATTER   chunked parallel pass: move each element to the slot its
//                recorded id names in the scratch buffer (one read + one
//                write; no key is classified twice).
//                Chunk-ordered offsets make the scatter stable: within a
//                bucket, chunk c's elements precede chunk c+1's, and a chunk
//                emits in element order.
//   5. BUCKETS   parallel over buckets (grain 1, so the backend's scheduler
//                balances skewed buckets): samplesort_bucket distributes
//                each bucket — cache-resident by construction of the bucket
//                cap — once more with a splitter tree of its own, scattering
//                it stably from the scratch buffer to its final place in the
//                input, where an insertion sort finishes each sub-bucket of
//                at most 64 keys. A sub-bucket too big for a leaf goes
//                through the same kernel; an all-equal range is only moved,
//                and a depth bound hands any remainder to the std sort.
//
// DRAM traffic: ~3 input reads (classify, scatter, bucket load) and ~2
// element writes (scatter, bucket store), plus one write and one read of the
// id array — constant in P, vs mergesort's 1 + log2(2P) read+write rounds.
// The fig7 native comparison prints both from the sort_stats snapshot so the
// pass-count argument is measured, not asserted.
//
// Stability: the tree descent computes std::upper_bound's rank for any
// comparator, so equal keys share a bucket and a sub-bucket; both scatters
// are element-ordered (the top-level one chunk-ordered too), the leaves are
// insertion sorts, and the stable variant sorts any remainder with
// std::stable_sort — so pstlb::stable_sort can run on this path.
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
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "backends/scan_lookback.hpp"
#include "backends/skeletons.hpp"
#include "numa/first_touch_allocator.hpp"
#include "pstlb/detail/sort_stats.hpp"
#include "sched/arena.hpp"
#include "trace/trace.hpp"

namespace pstlb::detail {

/// Samplesort tunables. The front-ends use the defaults; tests pass other
/// values to force many buckets or oversized ones.
struct samplesort_params {
  /// Elements per bucket the bucket count aims to stay below (and below
  /// which a bucket is assumed cache-resident).
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
  /// [0, len); `Id` must hold the splitter count. Eight descents run
  /// interleaved, so their tree loads overlap instead of each waiting for
  /// the previous level's.
  template <class It, class Compare, class Id>
  void classify(It keys, index_t len, Compare comp, Id* out) const {
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
        out[i + j] = static_cast<Id>(rank(k[static_cast<std::size_t>(j)]));
      }
    }
    for (; i < len; ++i) {
      index_t k = 0;
      for (int l = 0; l < levels_; ++l) {
        k = 2 * k + 1 + !comp(keys[i], tree_[static_cast<std::size_t>(k)]);
      }
      out[i] = static_cast<Id>(rank(k));
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
/// the average bucket has slack before the cap, keep at least 4 buckets per
/// thread for balance, and bound the splitter search depth.
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

/// Bytes per recorded bucket id: one up to 256 buckets, two up to
/// samplesort_buckets' 4096.
inline constexpr std::size_t samplesort_id_bytes(index_t buckets) {
  return buckets <= 256 ? 1 : 2;
}

// The bucket kernel's constants, measured on a 4-core host with one thread
// sorting buckets of 2^12 and 2^14 random doubles (the bucket sizes of 2^16-
// and 2^22-element sorts): std::sort plus the move back took 80-90 ns per
// key; this kernel with std::sort leaves of ~64 keys 40-45 ns, and with
// insertion-sort leaves of at most 64 keys, 16-key targets and one sample
// per splitter 28-34 ns. Leaves of 128 or 256 keys, 2 or 4 samples per
// splitter, and a fan-out of 1024 (two-byte ids; 38 -> 43 ns at 2^14) were
// slower. A fan-out of at most 256 keeps a sub-bucket id in one byte.

/// Ranges of at most this many keys are leaves: one insertion sort.
inline constexpr index_t bucket_leaf_max = 64;
/// Keys per sub-bucket a distribution aims for.
inline constexpr index_t bucket_leaf = 16;
/// Most sub-buckets one distribution makes.
inline constexpr index_t bucket_fanout_max = 256;
/// Distributions a range may take before the std sort takes what is left.
inline constexpr int bucket_max_depth = 4;

/// Sub-buckets for a range of `len` (> bucket_leaf_max) keys: a power of two
/// near len / bucket_leaf, at most bucket_fanout_max.
inline index_t bucket_fanout(index_t len) {
  const auto want = std::bit_ceil(static_cast<std::uint64_t>(ceil_div(len, bucket_leaf)));
  return std::min(static_cast<index_t>(want), bucket_fanout_max);
}

/// Sorts a leaf of at most bucket_leaf_max keys by insertion, which is
/// stable and so serves both variants; a longer range (the depth bound's
/// remainder, or one its splitters could not split) takes std::sort or
/// std::stable_sort.
template <bool Stable, class It, class Compare>
void samplesort_leaf(It first, It last, Compare comp) {
  if (last - first > bucket_leaf_max) {
    if constexpr (Stable) {
      std::stable_sort(first, last, comp);
    } else {
      std::sort(first, last, comp);
    }
    return;
  }
  for (It i = first + (first != last); i != last; ++i) {
    auto key = std::move(*i);
    It j = i;
    for (; j != first && comp(key, *(j - 1)); --j) { *j = std::move(*(j - 1)); }
    *j = std::move(key);
  }
}

/// The bucket kernel: sorts the `len` keys of `in` into `out`, a disjoint
/// range of the same length, on the calling thread. A range of more than
/// bucket_leaf_max keys is distributed by one classify pass over a splitter
/// tree drawn from its own sample, a count, and a stable scatter `in ->
/// out`; each sub-bucket is then leaf-sorted in place in `out`, or, when it
/// is still too big, sorted through this kernel with `in` as its scratch
/// (and moved back). A range whose splitters are all equal is only moved
/// when all its keys are equal, and leaf-sorted whole otherwise. `ids` is
/// `len` bytes of scratch for the sub-bucket ids; `in` is left holding
/// moved-from values. Keys equal under `comp` keep their order in the
/// Stable variant.
template <bool Stable, class InIt, class OutIt, class Compare>
void samplesort_bucket(InIt in, OutIt out, index_t len, Compare comp,
                       std::uint8_t* ids, int depth = 0) {
  using T = typename std::iterator_traits<InIt>::value_type;
  if (len <= bucket_leaf_max || depth == bucket_max_depth) {
    std::move(in, in + len, out);
    samplesort_leaf<Stable>(out, out + len, comp);
    return;
  }
  const index_t fanout = bucket_fanout(len);
  // One sample per splitter, drawn at a site of its own per depth (the top
  // level draws at depth 0's).
  const std::uint64_t site = static_cast<std::uint64_t>(depth + 1) << 32;
  std::vector<T> splitters;
  splitters.reserve(static_cast<std::size_t>(fanout - 1));
  for (index_t i = 0; i + 1 < fanout; ++i) {
    splitters.push_back(in[static_cast<index_t>(
        samplesort_draw(site + static_cast<std::uint64_t>(i)) %
        static_cast<std::uint64_t>(len))]);
  }
  std::sort(splitters.begin(), splitters.end(), comp);
  if (!comp(splitters.front(), splitters.back())) {
    // All splitters equal: an all-equal range is already in order (which
    // defuses the all-equal worst case); anything else goes to the leaf,
    // since such splitters could not split it.
    const bool all_equal =
        std::adjacent_find(in, in + len, [&](const T& a, const T& b) {
          return comp(a, b) || comp(b, a);
        }) == in + len;
    std::move(in, in + len, out);
    if (!all_equal) { samplesort_leaf<Stable>(out, out + len, comp); }
    return;
  }
  const splitter_tree<T> tree(splitters);
  tree.classify(in, len, comp, ids);

  std::array<index_t, bucket_fanout_max + 1> start{};
  for (index_t i = 0; i < len; ++i) { ++start[ids[i] + std::size_t{1}]; }
  for (index_t k = 0; k < fanout; ++k) {
    start[static_cast<std::size_t>(k + 1)] += start[static_cast<std::size_t>(k)];
  }
  std::array<index_t, bucket_fanout_max> cursor{};
  std::copy(start.begin(), start.begin() + fanout, cursor.begin());
  for (index_t i = 0; i < len; ++i) {
    out[cursor[ids[i]]++] = std::move(in[i]);
  }
  for (index_t k = 0; k < fanout; ++k) {
    const index_t s = start[static_cast<std::size_t>(k)];
    const index_t e = start[static_cast<std::size_t>(k + 1)];
    if (e - s <= bucket_leaf_max) {
      samplesort_leaf<Stable>(out + s, out + e, comp);
    } else {
      samplesort_bucket<Stable>(out + s, in + s, e - s, comp, ids + s, depth + 1);
      std::move(in + s, in + e, out + s);
    }
  }
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

/// Sorts [src, src + n) into `bucket_count` buckets with [tmp, tmp + n) as the
/// scatter buffer and [ids, ids + n) as the bucket ids; the result ends in
/// src. The one parallel level: the bucket kernel's distributions run
/// inside the bucket loop, which already keeps its team busy.
template <bool Stable, class SrcIt, class T, class Id, class Compare>
void samplesort_segment(const backends::backend& be, SrcIt src, T* tmp, Id* ids,
                        index_t n, index_t bucket_count, Compare comp,
                        const samplesort_params& params,
                        sort_traffic_stats& stats) {
  const double elem_bytes = static_cast<double>(sizeof(T));
  const double id_bytes = static_cast<double>(sizeof(Id));

  // --- phase 0: splitter selection ------------------------------------------
  // Oversampling narrows the spread of bucket sizes: with s samples per
  // splitter the expected maximum bucket is within a small constant of the
  // mean (Blelloch et al.).
  std::vector<T> splitters;
  {
    sort_phase_span span(0);
    const index_t samples =
        std::min(n, params.oversample * (bucket_count - 1) + 1);
    std::vector<T> sample;
    sample.reserve(static_cast<std::size_t>(samples));
    for (index_t i = 0; i < samples; ++i) {
      const auto pick = static_cast<index_t>(
          samplesort_draw(static_cast<std::uint64_t>(i)) %
          static_cast<std::uint64_t>(n));
      sample.push_back(src[pick]);
    }
    std::sort(sample.begin(), sample.end(), comp);
    splitters.reserve(static_cast<std::size_t>(bucket_count - 1));
    for (index_t k = 1; k < bucket_count; ++k) {
      splitters.push_back(sample[static_cast<std::size_t>(
          k * samples / bucket_count)]);
    }
    stats.sample.read += static_cast<double>(samples) * elem_bytes;
  }

  const splitter_tree<T> tree(splitters);

  // --- phase 1: bucket ids and per-chunk bucket histograms ------------------
  const backends::chunk_table chunks(n, be.threads());
  const index_t chunk_count = chunks.count;
  // Bucket-major layout hist[b * chunk_count + c]: the offsets scan below
  // walks it contiguously in exactly scatter order.
  std::vector<index_t> hist(
      static_cast<std::size_t>(bucket_count * chunk_count), 0);
  {
    sort_phase_span span(1);
    // Ids are counted a block at a time, while the block is still in L1.
    constexpr index_t classify_block = 512;
    backends::parallel_for(be, chunk_count, index_t{1},
                           [&](index_t cb, index_t ce, unsigned) {
      std::vector<index_t> local(static_cast<std::size_t>(bucket_count));
      for (index_t c = cb; c < ce; ++c) {
        std::fill(local.begin(), local.end(), index_t{0});
        index_t b = 0;
        index_t e = 0;
        chunks.bounds(c, b, e);
        for (index_t i = b; i < e; i += classify_block) {
          const index_t len = std::min(classify_block, e - i);
          tree.classify(src + i, len, comp, ids + i);
          for (index_t j = i; j < i + len; ++j) { ++local[ids[j]]; }
        }
        for (index_t bk = 0; bk < bucket_count; ++bk) {
          hist[static_cast<std::size_t>(bk * chunk_count + c)] =
              local[static_cast<std::size_t>(bk)];
        }
      }
    });
    stats.classify.read += static_cast<double>(n) * elem_bytes;
    stats.classify.written += static_cast<double>(n) * id_bytes;
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

  // --- phase 3: stable parallel scatter by the recorded ids -----------------
  {
    sort_phase_span span(2);
    backends::parallel_for(be, chunk_count, index_t{1},
                           [&](index_t cb, index_t ce, unsigned) {
      std::vector<index_t> cursor(static_cast<std::size_t>(bucket_count));
      for (index_t c = cb; c < ce; ++c) {
        for (index_t bk = 0; bk < bucket_count; ++bk) {
          cursor[static_cast<std::size_t>(bk)] =
              offsets[static_cast<std::size_t>(bk * chunk_count + c)];
        }
        index_t b = 0;
        index_t e = 0;
        chunks.bounds(c, b, e);
        for (index_t i = b; i < e; ++i) {
          tmp[cursor[ids[i]]++] = std::move(src[i]);
        }
      }
    });
    stats.scatter.read += static_cast<double>(n) * (elem_bytes + id_bytes);
    stats.scatter.written += static_cast<double>(n) * elem_bytes;
  }

  // --- phase 4: every bucket through the bucket kernel, tmp -> src ----------
  // The top-level ids are spent: each bucket's slice of the id array holds
  // its kernel's sub-bucket ids.
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
        samplesort_bucket<Stable>(tmp + s, src + s, e - s, comp,
                                  reinterpret_cast<std::uint8_t*>(ids + s));
      }
    });
    stats.buckets.read += static_cast<double>(n) * elem_bytes;
    stats.buckets.written += static_cast<double>(n) * elem_bytes;
  }
}

/// The scatter buffer of `n` elements and the id array of `n` ids of
/// `id_bytes` each, in one allocation through the first-touch allocator on
/// `be` — the backend and width the sort was granted — so bucket pages
/// spread across the NUMA nodes of the threads that will sort them (paper
/// Listing 5 discipline) and the touch region runs no wider than the sort's
/// own regions. Trivially copyable elements stay default-initialized: the
/// scatter assigns every slot before anything reads it. Other types are
/// value-initialized on the caller, since the scatter move-assigns into
/// live objects. A failed allocation leaves the scratch empty
/// (`allocated()` is false) instead of throwing std::bad_alloc.
template <class T>
class samplesort_scratch {
 public:
  samplesort_scratch(const backends::backend& be, index_t n, std::size_t id_bytes)
      : alloc_(exec::make_policy(be.id(), be.threads())),
        n_(static_cast<std::size_t>(n)),
        ids_at_(ceil_div(n_ * sizeof(T), alignof(std::max_align_t)) *
                alignof(std::max_align_t)),
        count_(ceil_div(ids_at_ + n_ * id_bytes, sizeof(T))) {
    try {
      data_ = alloc_.allocate(count_);
    } catch (const std::bad_alloc&) {
      return;
    }
    if constexpr (!std::is_trivially_copyable_v<T>) {
      try {
        std::uninitialized_value_construct_n(data_, n_);
      } catch (...) {
        alloc_.deallocate(data_, count_);
        throw;
      }
    }
  }
  ~samplesort_scratch() {
    if (data_ == nullptr) { return; }
    if constexpr (!std::is_trivially_copyable_v<T>) { std::destroy_n(data_, n_); }
    alloc_.deallocate(data_, count_);
  }
  samplesort_scratch(const samplesort_scratch&) = delete;
  samplesort_scratch& operator=(const samplesort_scratch&) = delete;

  bool allocated() const { return data_ != nullptr; }
  T* elements() const { return data_; }
  template <class Id>
  Id* ids() const {
    return reinterpret_cast<Id*>(reinterpret_cast<std::byte*>(data_) + ids_at_);
  }

 private:
  static constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
    return (a + b - 1) / b;
  }

  numa::first_touch_allocator<T, exec::policy> alloc_;
  std::size_t n_;
  std::size_t ids_at_;  // byte offset of the id array
  std::size_t count_;   // elements allocated, ids included
  T* data_ = nullptr;
};

/// Top-level entry: allocates the scratch (samplesort_scratch), runs the
/// pipeline with `params`, and publishes the traffic snapshot + region
/// counters.
///
/// Returns false when the scratch cannot be allocated — the one big
/// contiguous bite of memory this sort takes, and the only allocation before
/// any element moves, so the input is still intact and the caller falls back
/// to the merge pipeline (or all the way to a sequential sort) instead of
/// letting std::bad_alloc escape from pstlb::sort. The oom:p fault hook
/// fires inside the allocator's tracked allocation.
template <bool Stable, class It, class Compare>
bool parallel_samplesort(const backends::backend& be, It first, index_t n,
                         Compare comp, const samplesort_params& params = {}) {
  using T = typename std::iterator_traits<It>::value_type;
  const index_t bucket_count = samplesort_buckets(n, be.threads(), params.bucket_cap);
  if (bucket_count < 2) {
    samplesort_leaf<Stable>(first, first + n, comp);
    return true;
  }
  const std::size_t id_bytes = samplesort_id_bytes(bucket_count);
  const samplesort_scratch<T> scratch(be, n, id_bytes);
  if (!scratch.allocated()) {
    sched::note_degradation(sched::shed_reason::oom);
    return false;
  }
  auto& stats = begin_sort_traffic("sample", n, sizeof(T));
  if (id_bytes == 1) {
    samplesort_segment<Stable>(be, first, scratch.elements(),
                               scratch.template ids<std::uint8_t>(), n, bucket_count,
                               comp, params, stats);
  } else {
    samplesort_segment<Stable>(be, first, scratch.elements(),
                               scratch.template ids<std::uint16_t>(), n, bucket_count,
                               comp, params, stats);
  }
  commit_sort_traffic(stats);
  return true;
}

}  // namespace pstlb::detail

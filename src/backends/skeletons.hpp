// Algorithmic skeletons over the backend value.
//
// Every parallel STL algorithm in src/pstlb reduces to one of these five
// shapes (plus the sort/merge machinery in pstlb/algo_sort.hpp):
//
//   parallel_for     — independent map over [0, n)
//   parallel_reduce  — per-slot partial accumulation + ordered fold
//   parallel_find    — cancellable search for the smallest matching index
//   parallel_scan    — two-pass chunked prefix computation
//   parallel_pack    — count + prefix + emit (copy_if / partition family)
#pragma once

#include <atomic>
#include <optional>
#include <vector>

#include "backends/backend.hpp"

namespace pstlb::backends {

/// Runs body(begin, end, tid) over grain-sized blocks of [0, n).
template <class Body>
void parallel_for(const backend& be, index_t n, index_t grain, Body&& body) {
  be.for_blocks(n, grain, nullptr, std::forward<Body>(body));
}

template <class Body>
void parallel_for(const backend& be, index_t n, Body&& body) {
  parallel_for(be, n, default_grain(n, be.threads()), std::forward<Body>(body));
}

namespace detail {
template <class T>
struct alignas(cache_line_size) padded_slot {
  std::optional<T> value;
};
}  // namespace detail

/// Generic reduction: block(b, e) -> T computes a block-local value; combine
/// folds two values. Partial results are folded slot-by-slot in slot order,
/// then into `init`. (Like the real parallel backends, the grouping of
/// elements into partials depends on scheduling, so floating-point results
/// can differ between runs within rounding — exactly as std::reduce allows.)
template <class T, class BlockFn, class Combine>
T parallel_reduce(const backend& be, index_t n, index_t grain, T init, BlockFn&& block,
                  Combine&& combine) {
  if (n <= 0) { return init; }
  std::vector<detail::padded_slot<T>> slots(be.threads());
  be.for_blocks(n, grain, nullptr, [&](index_t b, index_t e, unsigned tid) {
    T value = block(b, e);
    auto& slot = slots[tid].value;
    if (slot.has_value()) {
      slot.emplace(combine(std::move(*slot), std::move(value)));
    } else {
      slot.emplace(std::move(value));
    }
  });
  T result = std::move(init);
  for (auto& slot : slots) {
    if (slot.value.has_value()) {
      result = combine(std::move(result), std::move(*slot.value));
    }
  }
  return result;
}

template <class T, class BlockFn, class Combine>
T parallel_reduce(const backend& be, index_t n, T init, BlockFn&& block,
                  Combine&& combine) {
  return parallel_reduce(be, n, default_grain(n, be.threads()), std::move(init),
                         std::forward<BlockFn>(block), std::forward<Combine>(combine));
}

/// Cancellable search. `block(b, e) -> index_t` returns the first matching
/// index in [b, e) or `e` when there is none. Returns the smallest matching
/// index overall, or `n` when nothing matches — matching std::find's
/// first-occurrence semantics under out-of-order block execution.
template <class BlockFind>
index_t parallel_find(const backend& be, index_t n, index_t grain, BlockFind&& block) {
  if (n <= 0) { return 0; }
  std::atomic<index_t> best{n};
  be.for_blocks(n, grain, &best, [&](index_t b, index_t e, unsigned) {
    const index_t hit = block(b, e);
    if (hit < e) { sched::fetch_min(best, hit); }
  });
  return best.load(std::memory_order_acquire);
}

/// Scan chunking: chunks of at least 2048 elements (small enough that a
/// same-chunk re-read stays cache-resident for the paper's 8-byte elements,
/// large enough to amortize per-chunk bookkeeping) and a 4x
/// oversubscription factor (slots * 4 chunks, so dynamic backends can
/// balance without drowning in chunk boundaries). The skeletons take both
/// as parameters; these are the values the front-ends use.
inline constexpr index_t scan_min_chunk = 2048;
inline constexpr index_t scan_oversub = 4;

/// Chunk table used by the two-pass skeletons: fixed boundaries so both
/// passes see identical chunks regardless of scheduling.
struct chunk_table {
  index_t n = 0;
  index_t chunk = 1;
  index_t count = 0;

  chunk_table(index_t total, unsigned slots, index_t min_chunk = scan_min_chunk,
              index_t oversub = scan_oversub) {
    n = total;
    const index_t wanted = static_cast<index_t>(slots) * (oversub < 1 ? 1 : oversub);
    const index_t feasible = ceil_div(total, min_chunk < 1 ? 1 : min_chunk);
    count = wanted < feasible ? wanted : feasible;
    if (count < 1) { count = 1; }
    chunk = ceil_div(total, count);
    count = ceil_div(total, chunk);
  }

  void bounds(index_t c, index_t& begin, index_t& end) const {
    begin = c * chunk;
    end = begin + chunk < n ? begin + chunk : n;
  }
};

/// Two-pass parallel scan.
///   reduce_block(b, e) -> T                : sum of a chunk (pass 1)
///   scan_block(b, e, carry, has_carry)     : rescan chunk, seeded (pass 2)
///   combine(T, T) -> T                     : the scan operation
/// T must be movable and default-constructible (slot storage only).
template <class T, class Combine, class ReduceBlock, class ScanBlock>
void parallel_scan(const backend& be, index_t n, Combine&& combine,
                   ReduceBlock&& reduce_block, ScanBlock&& scan_block) {
  if (n <= 0) { return; }
  const chunk_table chunks(n, be.threads());
  if (chunks.count <= 1 || be.threads() == 1) {
    scan_block(index_t{0}, n, T{}, false);
    return;
  }
  std::vector<T> sums(static_cast<std::size_t>(chunks.count));
  be.for_blocks(chunks.count, 1, nullptr, [&](index_t cb, index_t ce, unsigned) {
    for (index_t c = cb; c < ce; ++c) {
      index_t b = 0;
      index_t e = 0;
      chunks.bounds(c, b, e);
      sums[static_cast<std::size_t>(c)] = reduce_block(b, e);
    }
  });
  // Sequential exclusive prefix over chunk sums (cheap: O(slots)). Each
  // sums[c] is consumed exactly once, so it is moved into the combine; the
  // only copy left is carry[c] = running, which genuinely needs the value in
  // two places.
  std::vector<T> carry(sums.size());
  T running = std::move(sums[0]);
  for (std::size_t c = 1; c < sums.size(); ++c) {
    carry[c] = running;
    running = combine(std::move(running), std::move(sums[c]));
  }
  be.for_blocks(chunks.count, 1, nullptr, [&](index_t cb, index_t ce, unsigned) {
    for (index_t c = cb; c < ce; ++c) {
      index_t b = 0;
      index_t e = 0;
      chunks.bounds(c, b, e);
      // Each carry is consumed by exactly one chunk's rescan — move it.
      scan_block(b, e, c == 0 ? T{} : std::move(carry[static_cast<std::size_t>(c)]),
                 c != 0);
    }
  });
}

/// Two-pass pack: count matching elements per chunk, prefix the counts, then
/// emit each chunk at its exclusive offset. Returns the total packed count.
///   count_block(b, e) -> index_t
///   emit_block(b, e, offset, total)   (total = overall packed count)
template <class CountBlock, class EmitBlock>
index_t parallel_pack(const backend& be, index_t n, CountBlock&& count_block,
                      EmitBlock&& emit_block) {
  if (n <= 0) { return 0; }
  const chunk_table chunks(n, be.threads());
  if (chunks.count <= 1 || be.threads() == 1) {
    const index_t total = count_block(index_t{0}, n);
    emit_block(index_t{0}, n, index_t{0}, total);
    return total;
  }
  std::vector<index_t> counts(static_cast<std::size_t>(chunks.count));
  be.for_blocks(chunks.count, 1, nullptr, [&](index_t cb, index_t ce, unsigned) {
    for (index_t c = cb; c < ce; ++c) {
      index_t b = 0;
      index_t e = 0;
      chunks.bounds(c, b, e);
      counts[static_cast<std::size_t>(c)] = count_block(b, e);
    }
  });
  index_t total = 0;
  for (auto& count : counts) {
    const index_t mine = count;
    count = total;  // becomes the exclusive offset
    total += mine;
  }
  be.for_blocks(chunks.count, 1, nullptr, [&](index_t cb, index_t ce, unsigned) {
    for (index_t c = cb; c < ce; ++c) {
      index_t b = 0;
      index_t e = 0;
      chunks.bounds(c, b, e);
      emit_block(b, e, counts[static_cast<std::size_t>(c)], total);
    }
  });
  return total;
}

}  // namespace pstlb::backends

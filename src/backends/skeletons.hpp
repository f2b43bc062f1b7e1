// Algorithmic skeletons over the backend value.
//
// Every parallel STL algorithm in src/pstlb reduces to one of these five
// shapes (plus the sort/merge machinery in pstlb/algo_sort.hpp):
//
//   parallel_for     — independent map over [0, n)
//   parallel_reduce  — per-slot partial accumulation + ordered fold
//   parallel_find    — cancellable search for the smallest matching index
//   parallel_scan    — single-pass chained prefix (backends/scan_lookback.hpp)
//   parallel_pack    — chained count + emit (copy_if / partition family)
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

/// Scan chunking floor: chunks of at least 2048 elements (small enough that
/// a same-chunk re-read stays cache-resident for the paper's 8-byte
/// elements, large enough to amortize per-chunk bookkeeping). An input of at
/// most this many elements is one chunk, which the scan skeleton runs on its
/// caller alone. `scan_oversub` chunks per slot (slots * 4) let dynamic
/// backends balance the chunk tables built from these values.
inline constexpr index_t scan_min_chunk = 2048;
inline constexpr index_t scan_oversub = 4;

/// Fixed chunk boundaries for multi-pass pipelines (samplesort's histogram
/// and scatter passes), so every pass sees identical chunks regardless of
/// scheduling.
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

}  // namespace pstlb::backends

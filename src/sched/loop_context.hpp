// Shared loop descriptor executed by the dynamic schedulers.
//
// Work items that travel through queues/deques are plain packed chunk ranges;
// everything a chunk needs at execution time lives here. This keeps queue
// items hardware-atomic-sized and avoids per-chunk closure allocation in the
// steal scheduler (the futures scheduler allocates deliberately — that is the
// HPX-like cost profile it models).
#pragma once

#include <atomic>
#include <cstdint>

#include "pstlb/common.hpp"
#include "pstlb/fault.hpp"
#include "sched/cancel.hpp"
#include "sched/watchdog.hpp"

namespace pstlb::sched {

struct loop_context {
  /// Total elements; the loop iterates [0, n).
  index_t n = 0;
  /// Elements per chunk (scheduling granularity).
  index_t grain = 1;
  /// Executes one element range [begin, end) on behalf of participant `tid`.
  void (*run)(void* state, index_t begin, index_t end, unsigned tid) = nullptr;
  void* state = nullptr;
  /// Optional short-circuit support (X::find and friends): chunks whose first
  /// element index is >= *cancel_before are skipped. The body is responsible
  /// for lowering the value (fetch-min) when it finds a match.
  std::atomic<index_t>* cancel_before = nullptr;
  /// Exception propagation + cooperative cancellation for this loop. The
  /// pools install their per-run source before dispatch (unless the loop
  /// brings one) and rethrow after the join; execute_chunk requires it.
  cancel_source* errors = nullptr;
  /// Pool label for watchdog diagnostics ("steal", "task_queue", ...).
  /// Must be a string literal.
  const char* name = "loop";

  index_t num_chunks() const noexcept {
    return n == 0 ? 0 : ceil_div(n, grain);
  }

  /// Element range of chunk `c`.
  void chunk_bounds(index_t c, index_t& begin, index_t& end) const noexcept {
    begin = c * grain;
    end = begin + grain < n ? begin + grain : n;
  }

  /// Runs chunk `c`, honoring cancellation. Returns false if skipped.
  /// noexcept on purpose: an exception from user code is captured into
  /// `errors` (first one wins, token trips, later chunks drain without
  /// running user code) instead of escaping into the pool's completion
  /// accounting — the launching thread rethrows it after the join. Binds
  /// nothing: the participant running it is already bound to the region
  /// (thread_pool::run).
  bool execute_chunk(index_t c, unsigned tid) const noexcept {
    index_t begin = 0;
    index_t end = 0;
    chunk_bounds(c, begin, end);
    if (cancel_before != nullptr &&
        begin >= cancel_before->load(std::memory_order_relaxed)) {
      return false;
    }
    if (errors->cancelled()) { return false; }
    watchdog::chunk_mark mark(name, tid, begin, end);
    try {
      if (fault::armed()) { fault::on_chunk(begin); }
      // Re-check after the fault hook: an injected stall may have outlived a
      // watchdog cancellation, in which case the user code must not run.
      if (errors->cancelled()) { return false; }
      run(state, begin, end, tid);
    } catch (...) {
      errors->capture_current();
      return false;
    }
    errors->beat();
    return true;
  }
};

/// Lowers `target` to min(target, value). Used by find-family bodies together
/// with loop_context::cancel_before.
inline void fetch_min(std::atomic<index_t>& target, index_t value) {
  index_t current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value, std::memory_order_release,
                                       std::memory_order_relaxed)) {
  }
}

/// Chunk-range work item packed into one atomic word: [begin, end) chunk ids.
using packed_chunks = std::uint64_t;

inline packed_chunks pack_chunks(std::uint32_t begin, std::uint32_t end) {
  return (static_cast<std::uint64_t>(begin) << 32) | end;
}
inline std::uint32_t chunk_begin(packed_chunks p) { return static_cast<std::uint32_t>(p >> 32); }
inline std::uint32_t chunk_end(packed_chunks p) { return static_cast<std::uint32_t>(p); }

}  // namespace pstlb::sched

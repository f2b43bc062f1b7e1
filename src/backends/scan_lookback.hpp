// The scan and pack skeletons: a single-pass chained scan with decoupled
// lookback (Merrill & Garland's "Single-pass Parallel Prefix Scan with
// Decoupled Look-back", adapted from GPU tiles to CPU cache-resident chunks).
//
// A two-pass scan (reduce every chunk, prefix the sums, rescan every chunk)
// launches the pool twice and streams the input from DRAM twice; on a
// memory-bound operation like plus<double> that is the dominant cost (the
// paper's Fig. 5 scan gap). Here one pool launch runs and each worker:
//
//   1. claims the next chunk from a monotonic atomic ticket,
//   2. if the predecessor chunk has already published its inclusive PREFIX,
//      takes the fast path: one call of the chunk body writes the output
//      and returns this chunk's prefix — each element is touched exactly
//      once (this is the path a chain of in-order chunks degenerates to,
//      the way TBB's parallel_scan collapses to one pass),
//   3. otherwise runs the decoupled protocol: compute the chunk-local
//      aggregate (one streaming read; the chunk is sized to stay
//      cache-resident), publish it in a cache-line-padded status descriptor
//      (EMPTY -> AGGREGATE), resolve the exclusive prefix by looking back
//      over predecessor descriptors — summing AGGREGATEs right-to-left
//      until a PREFIX is met, spinning briefly then yielding on EMPTY —
//      publish its own PREFIX (unblocking successors before any output is
//      written), then call the same chunk body seeded with the carry; the
//      second read of the chunk comes from cache, so DRAM still sees each
//      input element once.
//
// Progress: tickets are claimed monotonically, so every descriptor a
// lookback can block on is owned by a worker that is actively between
// "claim" and "publish aggregate" — a bounded, non-blocking region. Chunk 0
// publishes PREFIX directly, so a lookback always terminates. A worker that
// drains the ticket when all chunks are claimed simply exits, which makes
// the skeleton safe on any of the five parallel backends via
// for_blocks(workers, 1, ...) — extra body invocations find the ticket
// exhausted and return.
//
// Failure: a chunk whose user code throws publishes POISONED instead of a
// value (the exception is captured in the scan's cancel_source, first one
// wins), and every lookback observes POISONED/cancellation and bails, so a
// mid-lookback exception can never strand a spinning peer. Claimed tickets
// always publish *something* — that is the invariant the protocol's liveness
// rests on.
//
// Ordering: the lookback accumulates a *suffix* of aggregates right-to-left
// (suffix = A(i) . suffix), so combine is only ever applied in sequence
// order — non-commutative associative operations (string concatenation,
// matrix composition) are safe.
#pragma once

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "backends/skeletons.hpp"
#include "pstlb/fault.hpp"
#include "sched/cancel.hpp"
#include "sched/watchdog.hpp"
#include "trace/trace.hpp"

namespace pstlb::backends {

namespace detail {

enum : unsigned {
  chunk_empty = 0,      // claimed (or not yet claimed); nothing published
  chunk_aggregate = 1,  // chunk-local aggregate available
  chunk_prefix = 2,     // inclusive prefix of everything through this chunk
  chunk_poisoned = 3,   // owner failed or drained; no value will ever appear
};

/// One descriptor per chunk, padded so the publishing store and the
/// lookback loads of neighbouring chunks never share a cache line.
template <class T>
struct alignas(cache_line_size) chunk_descriptor {
  std::atomic<unsigned> flag{chunk_empty};
  T aggregate{};  // valid once flag >= chunk_aggregate
  T prefix{};     // valid once flag == chunk_prefix
};

/// Resolves the exclusive prefix of chunk `c` by walking descriptors
/// right-to-left from c-1, accumulating aggregates until a PREFIX is found.
/// Spin-then-yield on EMPTY (same 64-spin discipline as the pools), because
/// the owner is mid-aggregate on another thread — or preempted, in which
/// case the yield is what lets it run on an oversubscribed host.
///
/// Returns nullopt when the chain is broken: a predecessor is POISONED (its
/// owner threw) or the scan's cancel token tripped while we were spinning on
/// EMPTY. The spin MUST observe both — a poisoned predecessor will never
/// publish, so an unconditional wait would deadlock every successor.
template <class T, class Combine>
std::optional<T> lookback_carry(std::vector<chunk_descriptor<T>>& chunks,
                                index_t c, Combine& combine,
                                const sched::cancel_source& src) {
  std::optional<T> suffix;  // A(i+1) . A(i+2) ... A(c-1)
  index_t i = c - 1;
  int spins = 0;
  for (;;) {
    const unsigned flag = chunks[static_cast<std::size_t>(i)].flag.load(
        std::memory_order_acquire);
    if (flag == chunk_prefix) {
      T head = chunks[static_cast<std::size_t>(i)].prefix;
      return suffix.has_value() ? combine(std::move(head), std::move(*suffix))
                                : std::move(head);
    }
    if (flag == chunk_poisoned) { return std::nullopt; }
    if (flag == chunk_aggregate) {
      T agg = chunks[static_cast<std::size_t>(i)].aggregate;
      suffix.emplace(suffix.has_value()
                         ? combine(std::move(agg), std::move(*suffix))
                         : std::move(agg));
      --i;  // chunk 0 only ever publishes PREFIX, so i stays >= 0
      spins = 0;
      continue;
    }
    if (++spins >= 64) {
      if (src.cancelled()) { return std::nullopt; }
      std::this_thread::yield();
      spins = 0;
    }
  }
}

}  // namespace detail

/// Chunk size for the scan skeletons: ~64 chunks per participant for
/// balance, floored at `min_chunk` so descriptor traffic stays negligible,
/// and capped at 2^15 elements so the in-chunk re-read stays cache-resident
/// (2^15 * 8 B = 256 KiB <= L2).
inline index_t lookback_chunk_size(index_t n, unsigned threads,
                                   index_t min_chunk = scan_min_chunk) {
  const index_t target_chunks = static_cast<index_t>(threads) * 64;
  index_t chunk = ceil_div(n, target_chunks > 0 ? target_chunks : 1);
  if (chunk < min_chunk) { chunk = min_chunk; }
  constexpr index_t max_chunk = index_t{1} << 15;
  if (chunk > max_chunk) { chunk = max_chunk; }
  return chunk < 1 ? 1 : chunk;
}

/// True when `n` elements are one chunk at the default floor, at any width:
/// the skeleton would run them sequentially on the caller, so the scan and
/// pack front-ends take their sequential path without asking for cores.
inline constexpr bool fits_one_scan_chunk(index_t n) { return n <= scan_min_chunk; }

/// Single-pass scan with decoupled lookback. Callbacks:
///   reduce_block(b, e) -> T  : aggregate of a chunk, which the decoupled
///                              protocol publishes before its carry is known
///   scan_block(b, e, carry, has_carry) -> T
///       : the one chunk body. Writes the chunk's output, seeded with
///         `carry` — the chained inclusive prefix of everything before b —
///         when has_carry, and returns the running prefix after e. Only the
///         first chunk runs without a carry; a scan with an init seeds that
///         chunk with it, so the chained prefix holds the init exactly once.
///   combine(T, T) -> T       : the scan operation
/// The first chunk, the fast path and the decoupled rescan all call
/// scan_block; the rescan discards its return, since its prefix was
/// published as combine(carry, aggregate) before the rescan ran.
/// T must be movable, copyable and default-constructible (descriptor
/// storage). `min_chunk` overrides the chunk floor (tests use tiny chunks
/// to force deep lookbacks).
/// `final_prefix`, when non-null, receives the inclusive prefix of the whole
/// range (the pack skeleton's total).
template <class T, class Combine, class ReduceBlock, class ScanBlock>
void parallel_scan(const backend& be, index_t n, Combine&& combine,
                   ReduceBlock&& reduce_block, ScanBlock&& scan_block,
                   index_t min_chunk = scan_min_chunk, T* final_prefix = nullptr) {
  if (n <= 0) { return; }
  const index_t chunk = lookback_chunk_size(n, be.threads(), min_chunk);
  const index_t count = ceil_div(n, chunk);
  if (count <= 1 || be.threads() == 1) {
    T total = scan_block(index_t{0}, n, T{}, false);
    if (final_prefix != nullptr) { *final_prefix = std::move(total); }
    return;
  }
  std::vector<detail::chunk_descriptor<T>> chunks(
      static_cast<std::size_t>(count));
  alignas(cache_line_size) std::atomic<index_t> ticket{0};
  const index_t workers = static_cast<index_t>(be.threads());
  // Scan-level fault channel, handed to the region as its own: the
  // descriptor chain is shared state the backend knows nothing about, so a
  // throwing chunk must poison its descriptor HERE — a worker that merely
  // vanished (backend-level drain) would leave successors spinning forever
  // on its EMPTY flag. Every claimed ticket therefore publishes something:
  // a value on success, POISONED on failure or drain. As the region's
  // source it is what the participants are bound to and what the watchdog
  // watches, so every scan chunk's beat counts.
  sched::cancel_source src(sched::current_cancel());
  const auto body = [&](index_t, index_t, unsigned tid) {
    for (;;) {
      const index_t c = ticket.fetch_add(1, std::memory_order_relaxed);
      if (c >= count) { return; }
      auto& desc = chunks[static_cast<std::size_t>(c)];
      if (src.cancelled()) {
        desc.flag.store(detail::chunk_poisoned, std::memory_order_release);
        continue;  // drain: claim and poison the remaining tickets
      }
      const index_t b = c * chunk;
      const index_t e = b + chunk < n ? b + chunk : n;
      const std::uint64_t elems = static_cast<std::uint64_t>(e - b);
      sched::watchdog::chunk_mark mark("scan", tid, b, e);
      try {
        if (fault::armed()) { fault::on_chunk(b); }
        if (src.cancelled()) {  // an injected stall may outlive a cancel
          desc.flag.store(detail::chunk_poisoned, std::memory_order_release);
          continue;
        }
        const std::uint64_t link =
            trace::link_task(static_cast<std::uint64_t>(c));
        if (c == 0) {
          const std::uint64_t t0 = trace::span_begin();
          desc.prefix = scan_block(b, e, T{}, false);
          desc.flag.store(detail::chunk_prefix, std::memory_order_release);
          trace::record_span(trace::pool_id::scan, trace::event_kind::chunk,
                             t0, elems, link);
          src.beat();
          continue;
        }
        auto& pred = chunks[static_cast<std::size_t>(c - 1)];
        if (pred.flag.load(std::memory_order_acquire) == detail::chunk_prefix) {
          // Fast path: the chain is already resolved up to our chunk — one
          // pass reads each element exactly once. PREFIX is immutable once
          // published, so the copy is race-free.
          const std::uint64_t t0 = trace::span_begin();
          desc.prefix = scan_block(b, e, T{pred.prefix}, true);
          desc.flag.store(detail::chunk_prefix, std::memory_order_release);
          trace::record_span(trace::pool_id::scan, trace::event_kind::chunk,
                             t0, elems, link);
          src.beat();
          continue;
        }
        // Decoupled protocol: publish the aggregate, look back for the carry,
        // publish our prefix (successors unblock before any output is
        // written), then rescan the — still cache-resident — chunk.
        const std::uint64_t t0 = trace::span_begin();
        T agg = reduce_block(b, e);
        desc.aggregate = agg;
        desc.flag.store(detail::chunk_aggregate, std::memory_order_release);
        const std::uint64_t lb0 = trace::span_begin();
        std::optional<T> carry = detail::lookback_carry(chunks, c, combine, src);
        trace::record_span(trace::pool_id::scan, trace::event_kind::lookback,
                           lb0, static_cast<std::uint64_t>(c), link);
        if (!carry.has_value()) {
          // Broken chain (poisoned predecessor or cancellation): our own
          // prefix is unknowable. Overwriting AGGREGATE with POISONED is
          // fine — any successor that already consumed the aggregate will
          // hit the same break further left and bail the same way.
          desc.flag.store(detail::chunk_poisoned, std::memory_order_release);
          continue;
        }
        T carry_copy = *carry;  // carry seeds both our prefix and the rescan
        desc.prefix = combine(std::move(carry_copy), std::move(agg));
        desc.flag.store(detail::chunk_prefix, std::memory_order_release);
        scan_block(b, e, std::move(*carry), true);
        trace::record_span(trace::pool_id::scan, trace::event_kind::chunk, t0,
                           elems, link);
        src.beat();
      } catch (...) {
        src.capture_current();
        desc.flag.store(detail::chunk_poisoned, std::memory_order_release);
      }
    }
  };
  sched::loop_context region = make_loop_context(workers, 1, nullptr, body);
  region.errors = &src;
  run(be, region);
  // Rethrow before touching chunks.back(): a poisoned tail has no prefix.
  // (run rethrows a captured error itself, except after shedding a region
  // that failed to start to the sequential path.)
  src.rethrow();
  if (final_prefix != nullptr) {
    *final_prefix = std::move(chunks.back().prefix);
  }
}

/// Single-pass pack: counts are chained through the descriptor protocol
/// instead of a separate prefix pass, and a chunk whose predecessor is
/// resolved emits directly — evaluating the predicate once per element.
/// emit_block does not receive the overall total — it is unknowable until
/// the last chunk resolves — so a placement that depends on it must be
/// expressed without it (stable_partition fills its false side from the
/// back of its buffer instead).
///   count_block(b, e) -> index_t
///   emit_block(b, e, offset) -> index_t   (the number of elements emitted)
/// Returns the total packed count.
template <class CountBlock, class EmitBlock>
index_t parallel_pack(const backend& be, index_t n, CountBlock&& count_block,
                      EmitBlock&& emit_block, index_t min_chunk = scan_min_chunk) {
  if (n <= 0) { return 0; }
  index_t total = 0;
  parallel_scan<index_t>(
      be, n, [](index_t a, index_t b) { return a + b; },
      [&](index_t b, index_t e) { return count_block(b, e); },
      [&](index_t b, index_t e, index_t carry, bool has_carry) {
        const index_t offset = has_carry ? carry : 0;
        return offset + emit_block(b, e, offset);
      },
      min_chunk, &total);
  return total;
}

}  // namespace pstlb::backends

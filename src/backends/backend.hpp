// The backend value and the one runtime seam every parallel loop crosses.
//
// A backend describes *how* a loop is scheduled: which of the paper's
// execution models claims its chunks, and how many participants it may use.
//
//   seq          — GCC-SEQ baseline: blocks run in order on the caller
//   fork_join    — GNU/OpenMP static scheduling: one thread_pool region,
//                  each participant runs an even share of the chunks
//                  (NVC-OMP is this engine under another policy profile,
//                  exec::omp_static_policy)
//   omp_dynamic  — OpenMP schedule(dynamic): the same region, but chunks are
//                  claimed from one shared cursor
//   steal        — TBB-style work stealing with lazy binary splitting
//   task_futures — HPX-style: one heap-allocated task per chunk through a
//                  central queue
//
// Every loop reaches the one worker pool (sched::thread_pool) through one
// non-template function: for_blocks only type-erases the body into a
// sched::loop_context, and backends::run owns the rest — the sequential
// short-circuit, the spawn/allocation failure ladder and each model's claim
// rule, which runs on the worker team the region claimed. A loop started
// inside another loop's chunk is no different: it is one more region, on
// the workers that are idle or on its caller alone.
#pragma once

#include <atomic>

#include "pstlb/common.hpp"
#include "sched/loop_context.hpp"

namespace pstlb::backends {

/// Ids keep the numbers they had while NVC-OMP was an engine of its own (2,
/// now exec::omp_static_policy over fork_join), so a recorded id, such as
/// the raw bytes gtest prints in a parameterized test's name, still names
/// the same engine.
enum class backend_id { seq, fork_join, omp_dynamic = 3, steal, task_futures };

class backend;

/// Runs `ctx` on `be`. Blocks until every chunk ran or was skipped; the
/// first exception a chunk throws is rethrown here, once. The loop's fault
/// channel is `ctx.errors` when set, else a source of its own; either way
/// it is linked to the enclosing region's (sched::current_cancel()). A pool
/// that cannot start (worker spawn or scratch allocation failure before any
/// chunk ran) sheds the loop to the sequential path and counts the shed.
void run(const backend& be, const sched::loop_context& ctx);

/// Type-erases a callable into a sched::loop_context (no allocation; the
/// callable must outlive the loop, which for_blocks guarantees by blocking).
/// A const callable stays const: only `run` casts the state back.
template <class F>
sched::loop_context make_loop_context(index_t n, index_t grain,
                                      std::atomic<index_t>* cancel, F& body) {
  sched::loop_context ctx;
  ctx.n = n;
  ctx.grain = grain > 0 ? grain : 1;
  ctx.cancel_before = cancel;
  ctx.state = const_cast<void*>(static_cast<const void*>(&body));
  ctx.run = [](void* state, index_t begin, index_t end, unsigned tid) {
    (*static_cast<F*>(state))(begin, end, tid);
  };
  return ctx;
}

class backend {
 public:
  /// The sequential backend.
  backend() noexcept = default;
  /// Model `id` with `threads` participants (0 counts as 1; seq always has 1).
  backend(backend_id id, unsigned threads) noexcept;

  backend_id id() const noexcept { return id_; }
  /// Participants a parallel loop may use, and the bound on every `tid` a
  /// loop body sees: each claim rule hands a chunk the tid of the team
  /// participant running it, and a team is never wider than this. Bodies
  /// size per-participant scratch from it.
  unsigned threads() const noexcept { return threads_; }

  /// Runs body(begin, end, tid) over grain-sized blocks covering [0, n).
  /// With `cancel`, blocks whose first index is >= *cancel are skipped; the
  /// body lowers it (sched::fetch_min) when it finds a match.
  template <class F>
  void for_blocks(index_t n, index_t grain, std::atomic<index_t>* cancel,
                  F&& body) const {
    if (n <= 0) { return; }
    run(*this, make_loop_context(n, grain, cancel, body));
  }

 private:
  backend_id id_ = backend_id::seq;
  unsigned threads_ = 1;
};

/// The paper's parallel models by name, `threads` participants each.
inline backend fork_join_backend(unsigned threads) {
  return {backend_id::fork_join, threads};
}
inline backend omp_dynamic_backend(unsigned threads) {
  return {backend_id::omp_dynamic, threads};
}
inline backend steal_backend(unsigned threads) {
  return {backend_id::steal, threads};
}
inline backend task_futures_backend(unsigned threads) {
  return {backend_id::task_futures, threads};
}

/// Most chunks one loop may have: the steal scheduler packs a chunk range
/// into the two 32-bit halves of one deque word.
inline constexpr index_t max_chunks = 0xFFFFFFFF;

/// `grain` (0 counts as 1), raised just enough that [0, n) splits into at
/// most max_chunks chunks. Grain only decides scheduling, so raising it never
/// changes a result.
constexpr index_t fit_grain(index_t n, index_t grain) {
  const index_t g = grain > 0 ? grain : 1;
  return ceil_div(n, g) <= max_chunks ? g : ceil_div(n, max_chunks);
}

/// Default scheduling granularity: enough chunks for balance (~8 per
/// participant) without drowning in per-chunk overhead.
inline index_t default_grain(index_t n, unsigned threads) {
  const index_t target_chunks = static_cast<index_t>(threads) * 8;
  const index_t grain = ceil_div(n, target_chunks > 0 ? target_chunks : 1);
  return grain < 1 ? 1 : grain;
}

}  // namespace pstlb::backends

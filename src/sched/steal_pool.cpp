#include "sched/steal_pool.hpp"

#include <memory>
#include <thread>
#include <vector>

#include "pstlb/fault.hpp"
#include "sched/chase_lev_deque.hpp"
#include "sched/thread_pool.hpp"
#include "trace/trace.hpp"

namespace pstlb::sched {

namespace {

/// splitmix64 (Steele, Lea & Flood): the per-thread victim RNG. Each
/// participant owns an independent stream keyed by (seed, tid), so victim
/// choices are uncorrelated across participants yet reproducible run-to-run
/// under PSTLB_FAULT_SEED — the same knob that makes fault injection
/// replayable.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

using deque = chase_lev_deque<packed_chunks>;

/// One run's state, on its caller's stack and shared by its team. Filled in
/// completely before the region starts, so every participant finds its deque
/// and the root range already in place.
struct steal_run {
  const loop_context* ctx = nullptr;
  std::uint64_t seed = 0;  // victim RNG seed (PSTLB_FAULT_SEED)
  std::vector<std::unique_ptr<deque>> deques;  // one per possible participant
  alignas(cache_line_size) std::atomic<index_t> remaining{0};
};

void work(steal_run& run, unsigned tid, unsigned nthreads) {
  // Zero here means the loop already drained.
  if (run.remaining.load(std::memory_order_acquire) == 0) { return; }
  const loop_context& ctx = *run.ctx;
  deque& mine = *run.deques[tid];
  std::uint64_t rng = run.seed ^ (0xD1B54A32D192ED03ull * (tid + 1));
  int idle_spins = 0;
  // Tracing: one idle span covers the whole out-of-work interval (first
  // failed pop until work is found or the loop drains), not every spin.
  std::uint64_t idle_since = 0;

  for (;;) {
    std::optional<packed_chunks> item = mine.pop();
    if (!item) {
      if (run.remaining.load(std::memory_order_acquire) == 0) {
        trace::record_span(trace::pool_id::steal, trace::event_kind::idle,
                           idle_since);
        return;
      }
      // Victims are the claimed team only: deques past nthreads stay empty.
      const auto victim = static_cast<unsigned>(splitmix64(rng) % nthreads);
      if (victim != tid) {
        item = run.deques[victim]->steal();
        // A successful steal links the stolen range so the span graph can
        // pair it with the victim's split that shed exactly this range.
        trace::count_steal(trace::pool_id::steal, item.has_value(), victim,
                           item.has_value()
                               ? trace::link_range(chunk_begin(*item),
                                                   chunk_end(*item))
                               : 0);
      }
      if (!item) {
        if (idle_since == 0) { idle_since = trace::span_begin(); }
        if (++idle_spins >= 64) {
          std::this_thread::yield();
          idle_spins = 0;
        }
        continue;
      }
    }
    idle_spins = 0;
    trace::record_span(trace::pool_id::steal, trace::event_kind::idle, idle_since);
    idle_since = 0;

    std::uint32_t begin = chunk_begin(*item);
    std::uint32_t end = chunk_end(*item);
    // Lazy binary splitting: shed upper halves into the local deque (where
    // thieves take the largest pieces from the top) and execute the first
    // chunk ourselves.
    while (end - begin > 1) {
      const std::uint32_t mid = begin + (end - begin) / 2;
      mine.push(pack_chunks(mid, end));
      trace::count_split(trace::pool_id::steal, trace::link_range(mid, end));
      end = mid;
    }
    index_t eb = 0;
    index_t ee = 0;
    ctx.chunk_bounds(static_cast<index_t>(begin), eb, ee);
    const std::uint64_t t0 = trace::span_begin();
    ctx.execute_chunk(static_cast<index_t>(begin), tid);
    trace::record_span(trace::pool_id::steal, trace::event_kind::chunk, t0,
                       static_cast<std::uint64_t>(ee - eb),
                       trace::link_task(begin));
    run.remaining.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace

void steal_pool::run(unsigned participants, const loop_context& ctx) {
  PSTLB_EXPECTS(participants >= 1);
  PSTLB_EXPECTS(ctx.run != nullptr);
  const index_t chunks = ctx.num_chunks();
  if (chunks == 0) { return; }

  // Per-run fault channel: the first throwing chunk captures its exception
  // here, the rest of the loop drains, and the caller rethrows after the
  // join. An already-installed source (backends::run's) is respected.
  cancel_source errors(current_cancel());
  loop_context run_ctx = ctx;
  if (run_ctx.errors == nullptr) { run_ctx.errors = &errors; }
  run_ctx.name = "steal";

  // The victim seed is read once per process. Every participant the region
  // may get has its deque before the region starts, and the caller's (tid
  // 0) holds the root range, so no participant waits for another to set up.
  // A deque holds at most one range plus one split chain (<= 32 halves of a
  // 32-bit chunk range), so its capacity never grows mid-run.
  static const std::uint64_t seed = fault::env_seed(0x9E3779B9u);
  steal_run run;
  run.ctx = &run_ctx;
  run.seed = seed;
  run.deques.reserve(participants);
  for (unsigned t = 0; t < participants; ++t) {
    run.deques.push_back(std::make_unique<deque>(65));
  }
  run.deques[0]->push(pack_chunks(0, static_cast<std::uint32_t>(chunks)));
  run.remaining.store(chunks, std::memory_order_relaxed);
  thread_pool::global().run(
      participants,
      [&run](unsigned tid, unsigned nthreads) { work(run, tid, nthreads); },
      run_ctx.errors);
  run_ctx.errors->rethrow();
}

steal_pool& steal_pool::global() {
  static steal_pool pool;
  return pool;
}

}  // namespace pstlb::sched

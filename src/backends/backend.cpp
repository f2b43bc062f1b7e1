#include "backends/backend.hpp"

#include <algorithm>
#include <new>
#include <system_error>

#include "pstlb/fault.hpp"
#include "sched/arena.hpp"
#include "sched/cancel.hpp"
#include "sched/steal_pool.hpp"
#include "sched/task_queue_pool.hpp"
#include "sched/thread_pool.hpp"
#include "trace/trace.hpp"

namespace pstlb::backends {

backend::backend(backend_id id, unsigned threads) noexcept
    : id_(id), threads_(id == backend_id::seq || threads == 0 ? 1 : threads) {}

namespace {

/// The sequential path: blocks in order on the calling thread, tid 0,
/// exceptions propagate unchanged.
void run_sequential(const sched::loop_context& ctx) {
  const index_t chunks = ctx.num_chunks();
  for (index_t c = 0; c < chunks; ++c) {
    index_t begin = 0;
    index_t end = 0;
    ctx.chunk_bounds(c, begin, end);
    if (ctx.cancel_before != nullptr &&
        begin >= ctx.cancel_before->load(std::memory_order_relaxed)) {
      return;  // in-order walk: nothing past the cancel point matters
    }
    if (fault::armed()) { fault::on_chunk(begin); }
    ctx.run(ctx.state, begin, end, 0);
  }
}

/// fork_join, omp_static and omp_dynamic: one thread_pool region. Each
/// participant claims chunks either as its even share of the chunk ids
/// (static) or from one shared cursor (dynamic).
void run_region(const sched::loop_context& ctx, unsigned threads, bool dynamic) {
  const index_t chunks = ctx.num_chunks();
  alignas(cache_line_size) std::atomic<index_t> cursor{0};
  // False when the chunk was skipped, failed or the region was cancelled.
  const auto execute = [&ctx](index_t c, unsigned tid) {
    index_t begin = 0;
    index_t end = 0;
    ctx.chunk_bounds(c, begin, end);
    const std::uint64_t t0 = trace::span_begin();
    if (!ctx.execute_chunk(c, tid)) { return false; }
    trace::record_span(trace::pool_id::fork_join, trace::event_kind::chunk, t0,
                       static_cast<std::uint64_t>(end - begin),
                       trace::link_task(static_cast<std::uint64_t>(c)));
    return true;
  };
  const auto region = [&](unsigned tid, unsigned nthreads) noexcept {
    if (dynamic) {
      for (;;) {
        const index_t c = cursor.fetch_add(1, std::memory_order_relaxed);
        if (c >= chunks) { return; }
        // A chunk past the cancel point is skipped and the cursor keeps
        // draining; a failure or cancellation ends the participant.
        if (!execute(c, tid) && ctx.errors->cancelled()) { return; }
      }
    }
    // Shares differ by at most one chunk. In chunk order, once a chunk is
    // skipped or fails every later chunk of the share would be too.
    const index_t share = chunks / nthreads;
    const index_t extra = chunks % nthreads;
    const index_t first = share * tid + std::min<index_t>(tid, extra);
    const index_t last = first + share + (tid < extra ? 1 : 0);
    for (index_t c = first; c < last; ++c) {
      if (!execute(c, tid)) { return; }
    }
  };
  sched::thread_pool::global().run(threads, region, ctx.errors);
}

}  // namespace

void run(const backend& be, const sched::loop_context& loop) {
  sched::loop_context ctx = loop;
  ctx.grain = fit_grain(ctx.n, ctx.grain);
  if (ctx.n <= ctx.grain || be.threads() <= 1) {
    run_sequential(ctx);
    return;
  }
  // The region's fault channel (the loop's own when it brings one, as the
  // lookback scan does): the first throwing chunk captures its exception,
  // the rest drain without running user code, and it is rethrown here after
  // the join (TBB task_group_context semantics). Holding it here also tells
  // setup failures, which leave it untouched, from user ones.
  sched::cancel_source errors(sched::current_cancel());
  if (ctx.errors == nullptr) { ctx.errors = &errors; }
  // Only a pool that failed to start before any chunk ran may re-run the
  // loop sequentially; a task submit failing mid-loop cancels the source,
  // so it rethrows instead.
  const auto shed = [&](sched::shed_reason reason) {
    if (ctx.errors->has_error() || ctx.errors->cancelled()) { throw; }
    sched::note_degradation(reason);
    run_sequential(ctx);
  };
  try {
    switch (be.id()) {
      case backend_id::steal:
        sched::steal_pool::global().run(be.threads(), ctx);
        break;
      case backend_id::task_futures:
        sched::task_queue_pool::global().run(be.threads(), ctx);
        break;
      default: {
        const bool dynamic = be.id() == backend_id::omp_dynamic;
        ctx.name = dynamic ? "omp_dynamic" : "fork_join";
        // Static scheduling hands every participant one slice of at most
        // ceil(n / threads) elements, so a coarser grain cannot leave
        // participants idle.
        if (!dynamic) { ctx.grain = std::min(ctx.grain, ceil_div(ctx.n, be.threads())); }
        run_region(ctx, be.threads(), dynamic);
        break;
      }
    }
  } catch (const std::system_error&) {
    shed(sched::shed_reason::spawnfail);
    return;
  } catch (const std::bad_alloc&) {
    shed(sched::shed_reason::oom);
    return;
  }
  ctx.errors->rethrow();
}

}  // namespace pstlb::backends

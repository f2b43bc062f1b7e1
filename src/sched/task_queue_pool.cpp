#include "sched/task_queue_pool.hpp"

#include <condition_variable>
#include <mutex>

#include "sched/thread_pool.hpp"
#include "trace/trace.hpp"

namespace pstlb::sched {

namespace {

struct task {
  index_t chunk = 0;
  task* next = nullptr;
};

/// One run's central queue, on its caller's stack and drained by its team.
struct task_run {
  const loop_context* ctx = nullptr;
  std::mutex mutex;
  std::condition_variable ready;  // a task was queued, or submission ended
  task* head = nullptr;           // guarded by mutex: FIFO of queued tasks
  task* tail = nullptr;           // guarded by mutex
  bool submitted = false;         // guarded by mutex: no more tasks will come

  /// One heap-allocated task and one locked push per chunk: the deliberate
  /// HPX-like cost profile; `spawn` telemetry counts exactly these.
  void submit(index_t c) {
    auto* node = new task{c};
    trace::count_spawn(trace::pool_id::task_queue,
                       trace::link_task(static_cast<std::uint64_t>(c)));
    {
      std::lock_guard lock(mutex);
      (tail != nullptr ? tail->next : head) = node;
      tail = node;
    }
    ready.notify_one();
  }

  void finish_submission() {
    {
      std::lock_guard lock(mutex);
      submitted = true;
    }
    ready.notify_all();
  }

  /// Runs queued tasks as participant `tid` until the queue is empty and
  /// submission has ended.
  void drain(unsigned tid) {
    std::unique_lock lock(mutex);
    for (;;) {
      ready.wait(lock, [this] { return head != nullptr || submitted; });
      task* node = head;
      if (node == nullptr) { return; }
      head = node->next;
      if (head == nullptr) { tail = nullptr; }
      lock.unlock();
      index_t b = 0;
      index_t e = 0;
      ctx->chunk_bounds(node->chunk, b, e);
      const std::uint64_t t0 = trace::span_begin();
      ctx->execute_chunk(node->chunk, tid);
      trace::record_span(trace::pool_id::task_queue, trace::event_kind::chunk,
                         t0, static_cast<std::uint64_t>(e - b),
                         trace::link_task(static_cast<std::uint64_t>(node->chunk)));
      delete node;
      lock.lock();
    }
  }
};

}  // namespace

void task_queue_pool::ensure(unsigned participants) {
  thread_pool::global().ensure(participants);
}

void task_queue_pool::run(unsigned participants, const loop_context& ctx) {
  PSTLB_EXPECTS(participants >= 1);
  PSTLB_EXPECTS(ctx.run != nullptr);
  const index_t chunks = ctx.num_chunks();
  if (chunks == 0) { return; }

  // Per-run fault channel (see sched/cancel.hpp): first throwing chunk wins,
  // the rest drain, the caller rethrows after the queue empties. An
  // already-installed source (backends::run's) is respected.
  cancel_source errors(current_cancel());
  loop_context run_ctx = ctx;
  if (run_ctx.errors == nullptr) { run_ctx.errors = &errors; }
  run_ctx.name = "task_queue";

  task_run run;
  run.ctx = &run_ctx;
  thread_pool::global().run(
      participants,
      [&](unsigned tid, unsigned) {
        if (tid != 0) {
          run.drain(tid);
          return;
        }
        // The caller submits while the rest of the team already drains. A
        // submit that throws mid-loop (task allocation failure) cancels the
        // queued chunks so the drain stays cheap, and is rethrown once the
        // queue is empty again.
        std::exception_ptr submit_error;
        try {
          for (index_t c = 0; c < chunks; ++c) { run.submit(c); }
        } catch (...) {
          submit_error = std::current_exception();
          run_ctx.errors->cancel();
        }
        run.finish_submission();
        run.drain(0);
        if (submit_error != nullptr) { std::rethrow_exception(submit_error); }
      },
      run_ctx.errors);
  run_ctx.errors->rethrow();
}

task_queue_pool& task_queue_pool::global() {
  static task_queue_pool pool;
  return pool;
}

}  // namespace pstlb::sched

#include "sched/task_queue_pool.hpp"

#include <algorithm>

#include "counters/provider.hpp"
#include "pstlb/fault.hpp"
#include "sched/spawn_retry.hpp"
#include "sched/watchdog.hpp"
#include "trace/trace.hpp"

namespace pstlb::sched {

namespace {
// Slot for loop-body accumulators. Slot 0 = any thread that is not a pool
// worker (the run() caller — runs are serialized, so at most one such thread
// executes chunks at a time); a worker holds a slot while it runs tasks.
thread_local unsigned tls_slot = 0;
}  // namespace

task_queue_pool::task_queue_pool(unsigned workers) {
  active_limit_ = ~0u;
  workers_.reserve(workers);
  slot_busy_.assign(workers, false);
  try {
    for (unsigned i = 0; i < workers; ++i) {
      spawn_with_retry([this, slot = i + 1] {
        if (fault::armed()) { fault::on_spawn(); }
        workers_.emplace_back([this, slot] { worker_main(slot); });
      });
    }
  } catch (...) {
    // Partial startup: join the started workers before the vector<thread>
    // destructor can terminate on them (~task_queue_pool never runs when the
    // constructor throws).
    shutdown_and_join();
    throw;
  }
}

task_queue_pool::~task_queue_pool() {
  shutdown_and_join();
  for (task_node* node : queue_) { delete node; }
}

void task_queue_pool::shutdown_and_join() noexcept {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) { worker.join(); }
  }
  workers_.clear();
}

void task_queue_pool::ensure(unsigned participants) {
  std::lock_guard lock(mutex_);
  const unsigned needed = participants == 0 ? 0 : participants - 1;
  if (slot_busy_.size() < needed) { slot_busy_.resize(needed, false); }
  while (workers_.size() < needed) {
    const unsigned slot = static_cast<unsigned>(workers_.size()) + 1;
    // A persistent spawn failure (after the bounded retry) propagates with
    // the pool intact (started workers stay).
    spawn_with_retry([this, slot] {
      if (fault::armed()) { fault::on_spawn(); }
      workers_.emplace_back([this, slot] { worker_main(slot); });
    });
  }
}

void task_queue_pool::submit(std::function<void()> task, std::uint64_t link) {
  auto* node = new task_node{std::move(task)};
  // The heap allocation + central enqueue above IS the HPX-like per-task
  // overhead the paper measures; `spawn` telemetry counts exactly these.
  trace::count_spawn(trace::pool_id::task_queue, link);
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(node);
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void task_queue_pool::wait_all() {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

// Pops and runs one task. Returns false when the queue was empty.
// `lock` is held on entry and on exit; dropped around the task body.
bool task_queue_pool::run_one(std::unique_lock<std::mutex>& lock) {
  if (queue_.empty()) { return false; }
  task_node* node = queue_.front();
  queue_.pop_front();
  lock.unlock();
  node->fn();
  delete node;
  lock.lock();
  --in_flight_;
  if (in_flight_ == 0) { done_cv_.notify_all(); }
  return true;
}

unsigned task_queue_pool::claim_slot() {
  // The lowest free slot: fewer than active_limit_ workers hold one, so it
  // stays below the run's participants whatever other runs grew the pool to.
  const auto free = std::find(slot_busy_.begin(), slot_busy_.end(), false);
  *free = true;
  return static_cast<unsigned>(free - slot_busy_.begin()) + 1;
}

void task_queue_pool::worker_main(unsigned slot) {
  trace::set_thread_label("task_queue worker " + std::to_string(slot));
  // Per-worker hardware-counter group (no-op for sim/native providers).
  counters::attach_thread();
  std::unique_lock lock(mutex_);
  for (;;) {
    // Unlock around the timestamp: span_begin is cheap but there is no
    // reason to take the clock under the queue mutex.
    lock.unlock();
    const std::uint64_t idle0 = trace::span_begin();
    lock.lock();
    work_cv_.wait(lock, [this] {
      return stopping_ || (!queue_.empty() && active_workers_ < active_limit_);
    });
    if (stopping_) { return; }
    trace::record_span(trace::pool_id::task_queue, trace::event_kind::idle, idle0);
    ++active_workers_;
    tls_slot = claim_slot();
    while (!queue_.empty()) {
      run_one(lock);
    }
    slot_busy_[tls_slot - 1] = false;
    --active_workers_;
  }
}

void task_queue_pool::run(unsigned participants, const loop_context& ctx) {
  PSTLB_EXPECTS(participants >= 1);
  PSTLB_EXPECTS(ctx.run != nullptr);
  const index_t chunks = ctx.num_chunks();
  if (chunks == 0) { return; }

  // Per-run fault channel (see sched/cancel.hpp): first throwing chunk wins,
  // the rest drain, the caller rethrows after the queue empties.
  cancel_source errors;
  loop_context run_ctx = ctx;
  if (run_ctx.errors == nullptr) { run_ctx.errors = &errors; }
  run_ctx.name = "task_queue";

  if (participants == 1 || chunks == 1) {
    watchdog::scope monitor(*run_ctx.errors, "task_queue");
    for (index_t c = 0; c < chunks; ++c) { run_ctx.execute_chunk(c, tls_slot); }
    run_ctx.errors->rethrow();
    return;
  }
  ensure(participants);

  std::lock_guard run_guard(run_mutex_);
  watchdog::scope monitor(*run_ctx.errors, "task_queue");
  {
    std::lock_guard lock(mutex_);
    active_limit_ = participants - 1;  // the caller is the extra participant
  }
  // One heap-allocated task per chunk — the deliberate HPX-like cost profile.
  // A submit that throws mid-loop (task allocation failure) cancels the
  // already-queued chunks so the drain below stays cheap, and is rethrown
  // once the queue is empty again.
  std::exception_ptr submit_error;
  try {
    for (index_t c = 0; c < chunks; ++c) {
      const std::uint64_t link =
          trace::link_task(static_cast<std::uint64_t>(c));
      submit(
          [&run_ctx, c, link] {
            index_t b = 0;
            index_t e = 0;
            run_ctx.chunk_bounds(c, b, e);
            const std::uint64_t t0 = trace::span_begin();
            run_ctx.execute_chunk(c, tls_slot);
            trace::record_span(trace::pool_id::task_queue,
                               trace::event_kind::chunk, t0,
                               static_cast<std::uint64_t>(e - b), link);
          },
          link);
    }
  } catch (...) {
    submit_error = std::current_exception();
    run_ctx.errors->cancel();
  }
  // The caller participates by draining the queue, then waits for stragglers.
  {
    std::unique_lock lock(mutex_);
    while (run_one(lock)) {}
    done_cv_.wait(lock, [this] { return in_flight_ == 0; });
    active_limit_ = ~0u;
  }
  work_cv_.notify_all();
  if (submit_error != nullptr) { std::rethrow_exception(submit_error); }
  run_ctx.errors->rethrow();
}

task_queue_pool& task_queue_pool::global() {
  static task_queue_pool pool = [] {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned env = std::max(env_unsigned("PSTL_NUM_THREADS", 0),
                                  env_unsigned("OMP_NUM_THREADS", 0));
    return task_queue_pool(std::max({hw, env, 4u}) - 1);
  }();
  return pool;
}

}  // namespace pstlb::sched

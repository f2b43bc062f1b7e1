#include "sched/thread_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <optional>
#include <thread>

#include "counters/provider.hpp"
#include "pstlb/fault.hpp"
#include "sched/arena.hpp"
#include "sched/spawn_retry.hpp"
#include "sched/watchdog.hpp"
#include "trace/trace.hpp"

namespace pstlb::sched {

/// One region's shared state, on its caller's stack.
struct thread_pool::team {
  const region_fn* fn = nullptr;
  cancel_source* errors = nullptr;
  arena* home = nullptr;  // the caller's arena, bound on each worker for its share
  unsigned nthreads = 1;
  unsigned running = 0;       // guarded by mutex_: workers still inside fn
  worker* members = nullptr;  // the claimed workers, linked by next
};

struct thread_pool::worker {
  std::condition_variable wake;  // waited on with mutex_
  team* job = nullptr;           // guarded by mutex_: the claiming region
  unsigned tid = 0;              // guarded by mutex_: team tid within job
  // Guarded by mutex_: the idle-stack link while idle, the team link while
  // claimed (only the claiming caller touches it then).
  worker* next = nullptr;
  std::thread thread;  // last: started once the fields above exist
};

thread_pool::thread_pool(unsigned workers, std::string name)
    : name_(std::move(name)) {
  try {
    ensure(workers + 1);
  } catch (...) {
    // ~thread_pool never runs when the constructor throws, so the started
    // workers must be stopped and joined here — a joinable std::thread
    // destructor would terminate.
    shutdown_and_join();
    throw;
  }
}

thread_pool::~thread_pool() { shutdown_and_join(); }

void thread_pool::shutdown_and_join() noexcept {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    for (auto& w : workers_) { w->wake.notify_one(); }
  }
  for (auto& w : workers_) { w->thread.join(); }
  workers_.clear();
  idle_ = nullptr;
}

unsigned thread_pool::worker_count() const {
  std::lock_guard lock(mutex_);
  return static_cast<unsigned>(workers_.size());
}

void thread_pool::ensure(unsigned threads) {
  std::lock_guard lock(mutex_);
  const std::size_t needed = threads == 0 ? 0 : threads - 1;
  if (workers_.size() >= needed) { return; }
  workers_.reserve(needed);
  while (workers_.size() < needed) {
    auto w = std::make_unique<worker>();
    worker& self = *w;
    const auto index = static_cast<unsigned>(workers_.size()) + 1;
    // A persistent spawn failure (after the bounded retry) propagates with
    // the pool intact: started workers stay and are joined by the
    // destructor. The new worker blocks on mutex_ until this call returns.
    spawn_with_retry([&] {
      if (fault::armed()) { fault::on_spawn(); }
      self.thread = std::thread([this, &self, index] { worker_main(self, index); });
    });
    workers_.push_back(std::move(w));  // cannot throw: capacity reserved
    self.next = idle_;
    idle_ = &self;
  }
}

void thread_pool::run(unsigned threads, const region_fn& fn, cancel_source* errors) {
  PSTLB_EXPECTS(threads >= 1);
  if (threads == 1) {
    const cancel_binding bind(errors);
    fn(0, 1);
    return;
  }
  ensure(threads);
  team t;
  t.fn = &fn;
  t.errors = errors;
  t.home = arena::current();
  {
    std::lock_guard lock(mutex_);
    while (t.nthreads < threads && idle_ != nullptr) {
      worker* w = idle_;
      idle_ = w->next;
      w->next = t.members;
      t.members = w;
      w->job = &t;
      w->tid = t.nthreads++;
    }
    t.running = t.nthreads - 1;
  }
  // The team is this caller's until it returns it, so walking its links
  // needs no lock; a worker that is already running ignores the wake.
  for (worker* w = t.members; w != nullptr; w = w->next) { w->wake.notify_one(); }

  std::optional<watchdog::scope> monitor;
  std::exception_ptr caller_error;
  {  // the caller is participant 0
    const std::uint64_t t0 = trace::span_begin();
    try {
      // Watchdog coverage starts with the team, right before the caller's
      // own share, so stalled chunks are timed against the region's clock.
      if (errors != nullptr) { monitor.emplace(*errors, name_.c_str()); }
      const cancel_binding bind(errors);
      fn(0, t.nthreads);
    } catch (...) {
      // Still must meet the barrier: the workers hold references into `t`.
      caller_error = std::current_exception();
    }
    trace::record_span(trace::pool_id::fork_join, trace::event_kind::region, t0,
                       t.nthreads);
  }

  {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&t] { return t.running == 0; });
    while (t.members != nullptr) {
      worker* w = t.members;
      t.members = w->next;
      w->next = idle_;
      idle_ = w;
    }
  }
  if (caller_error != nullptr) { std::rethrow_exception(caller_error); }
}

void thread_pool::worker_main(worker& self, unsigned index) {
  trace::set_thread_label(name_ + " worker " + std::to_string(index));
  // Hardware-counter providers measure per thread: open this worker's event
  // group before it can execute any region work (no-op for sim/native).
  counters::attach_thread();
  for (;;) {
    // The park interval between claims is the fork-join model's idle time.
    const std::uint64_t idle0 = trace::span_begin();
    std::unique_lock lock(mutex_);
    self.wake.wait(lock, [&] { return stopping_ || self.job != nullptr; });
    if (self.job == nullptr) { return; }
    team& t = *self.job;
    const unsigned tid = self.tid;
    lock.unlock();
    trace::record_span(trace::pool_id::fork_join, trace::event_kind::idle, idle0);
    const std::uint64_t t0 = trace::span_begin();
    try {
      // The share runs bound to its region (see run()): a parallel call it
      // makes is a region nested in this one.
      const cancel_binding bind_errors(t.errors);
      const arena::scoped_bind bind_arena(t.home);
      (*t.fn)(tid, t.nthreads);
    } catch (...) {
      // With a fault channel the exception joins the region's single-winner
      // capture; without one this rethrows out of the thread function and
      // terminates — the contract for raw pool users.
      if (t.errors == nullptr) { throw; }
      t.errors->capture_current();
    }
    trace::record_span(trace::pool_id::fork_join, trace::event_kind::region, t0,
                       t.nthreads);
    lock.lock();
    self.job = nullptr;
    --t.running;
    lock.unlock();
    // Every finisher wakes the callers, not only the last one, so a caller's
    // own wake-up overlaps its team's stragglers; notify_all because the
    // callers of concurrent regions share done_cv_.
    done_cv_.notify_all();
  }
}

thread_pool& thread_pool::global() {
  static thread_pool pool(default_width() - 1);
  return pool;
}

}  // namespace pstlb::sched

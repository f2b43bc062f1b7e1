// The one worker set: a fork-join pool whose regions claim disjoint teams.
//
// Every parallel claim rule runs on this pool (backends/backend.cpp for the
// static and dynamic rules, sched/steal_pool and sched/task_queue_pool for
// stealing and tasks): a region executes one function on (tid, nthreads)
// and joins on a barrier at the end, exactly like an OpenMP `parallel`
// region.
//
// Concurrent regions never queue behind one another. A region claims up to
// `threads - 1` idle workers under a lock held only while it claims or
// returns them, and runs with the caller plus the workers it got. A region
// that finds the pool busy simply runs narrower (on its caller alone when
// every worker is taken); admission — how many regions run and how wide —
// is the arena's job (sched/arena.hpp).
//
// Design follows C++ Core Guidelines CP.41 (minimize thread creation): the
// pool is created once and reused.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pstlb/common.hpp"
#include "pstlb/env.hpp"
#include "sched/cancel.hpp"

namespace pstlb::sched {

namespace detail {

/// A thread-count variable; 0 when unset or invalid (above 2^20 is a typo).
inline unsigned thread_count(const char* name) {
  const unsigned value = env::unsigned_or(name, 0);
  return value <= 1u << 20 ? value : 0;
}

}  // namespace detail

/// A policy's default participant count: PSTL_NUM_THREADS, then
/// OMP_NUM_THREADS (Section 3.2 of the paper), then hardware_concurrency.
inline unsigned default_threads() {
  static const unsigned threads = [] {
    const unsigned pstl = detail::thread_count("PSTL_NUM_THREADS");
    const unsigned omp = detail::thread_count("OMP_NUM_THREADS");
    if (pstl != 0) { return pstl; }
    return omp != 0 ? omp : std::max(1u, std::thread::hardware_concurrency());
  }();
  return threads;
}

/// max(hardware_concurrency, PSTL_NUM_THREADS, OMP_NUM_THREADS): the width
/// the process is sized for. The global pool starts with this many
/// participants and the admission ledger counts this many cores. Both read
/// the variables and the hardware once per process.
inline unsigned default_width() {
  static const unsigned width = std::max(
      {1u, std::thread::hardware_concurrency(), detail::thread_count("PSTL_NUM_THREADS"),
       detail::thread_count("OMP_NUM_THREADS")});
  return width;
}

/// A persistent fork-join pool whose concurrent regions run on disjoint
/// worker teams.
class thread_pool {
 public:
  using region_fn = std::function<void(unsigned tid, unsigned nthreads)>;

  /// Starts `workers` workers. `name` labels their trace tracks ("<name>
  /// worker <i>") and the regions' watchdog entries. Throws
  /// std::system_error when a worker cannot be spawned; the already-started
  /// workers are shut down and joined first, so a failed construction leaks
  /// nothing.
  explicit thread_pool(unsigned workers, std::string name = "pool");
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Number of pool workers (excludes the callers, which always participate).
  unsigned worker_count() const;

  /// Grows the pool to `threads - 1` workers, so a region of `threads`
  /// participants is possible when no other region holds workers. Strong
  /// guarantee on spawn failure: successfully-started workers stay in the
  /// pool and the std::system_error propagates.
  void ensure(unsigned threads);

  /// Runs `fn(tid, nthreads)` on the caller (tid 0) plus the idle workers it
  /// claims (tids 1..nthreads-1), and waits for all. `nthreads` is at most
  /// `threads` and may be below it — down to 1 — when other regions hold
  /// workers; the call never waits for another region to finish. A region
  /// started from inside another one's share is no different: it claims
  /// the workers that are idle, or runs on its caller alone.
  /// Every participant, the caller included, runs its share bound to the
  /// region: `errors` as current_cancel() and the caller's arena as
  /// arena::current().
  /// `errors`, when given, is the region's fault channel: it is registered
  /// with the hang watchdog for the duration of the run, and an exception
  /// escaping `fn` on a worker thread is captured into it (first one wins)
  /// instead of terminating. The caller still owns the rethrow; an exception
  /// from the caller's own slot (tid 0) is rethrown here after the barrier.
  /// Without `errors`, a throwing `fn` on a worker terminates, as any thread
  /// function does.
  void run(unsigned threads, const region_fn& fn, cancel_source* errors = nullptr);

  /// The process-wide pool every backend runs on, started with
  /// default_width() - 1 workers; it grows on demand when a policy requests
  /// more participants.
  static thread_pool& global();

 private:
  struct team;
  struct worker;

  void worker_main(worker& self, unsigned index);
  /// Stops and joins every started worker (constructor-failure cleanup and
  /// the destructor share this path).
  void shutdown_and_join() noexcept;

  const std::string name_;
  // Guards the worker set, the idle stack and every worker's claim; held
  // only to grow the pool and to claim or return a team — never while
  // region code runs.
  mutable std::mutex mutex_;
  // Signalled by every worker that finishes its share (callers wait on it
  // with mutex_ for their own team). Pool-owned, so it may be notified
  // after the lock is dropped, when the team may already be gone.
  std::condition_variable done_cv_;
  std::vector<std::unique_ptr<worker>> workers_;
  worker* idle_ = nullptr;  // stack of unclaimed workers, linked by next
  bool stopping_ = false;
};

}  // namespace pstlb::sched

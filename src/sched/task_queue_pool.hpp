// Central-queue task scheduler (the HPX-like substrate).
//
// Each chunk of a loop becomes an individually heap-allocated task pushed
// into one shared queue guarded by a mutex. That is intentionally the
// costliest of the three scheduling disciplines: per-chunk allocation and a
// contended central queue are exactly the overheads the paper measures for
// the HPX backend (Tables 3 and 4 show 2-6x the instruction count of TBB).
// The scheduler is nevertheless fully correct and usable as a general task
// pool (`submit` + `wait_all`), not just for loops.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/loop_context.hpp"
#include "pstlb/common.hpp"

namespace pstlb::sched {

class task_queue_pool {
 public:
  explicit task_queue_pool(unsigned workers);
  ~task_queue_pool();

  task_queue_pool(const task_queue_pool&) = delete;
  task_queue_pool& operator=(const task_queue_pool&) = delete;

  /// Runs `ctx` over [0, ctx.n): one task per chunk through the central
  /// queue. The caller drains the queue too, then blocks until all chunks
  /// finished. `participants` bounds how many pool workers join in.
  void run(unsigned participants, const loop_context& ctx);

  /// Generic task submission; pair with wait_all() to join. Tasks must not
  /// themselves call wait_all(). `link` is the causal-link word stamped on
  /// the spawn trace event (trace::link_task of the chunk index for loop
  /// chunks) so the span graph can pair each spawn with the chunk it became.
  void submit(std::function<void()> task, std::uint64_t link = 0);
  void wait_all();

  void ensure(unsigned participants);
  unsigned worker_count() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Upper bound (exclusive) of the `tid` values passed to loop bodies. A
  /// run's bodies see tids below its participants: slot 0 is the calling
  /// thread, and a worker takes the lowest free slot of 1..N while it runs
  /// tasks.
  unsigned slot_count() const noexcept { return worker_count() + 1; }

  static task_queue_pool& global();

 private:
  struct task_node {
    std::function<void()> fn;
  };

  void worker_main(unsigned slot);
  unsigned claim_slot();
  bool run_one(std::unique_lock<std::mutex>& lock);
  void shutdown_and_join() noexcept;

  std::vector<std::thread> workers_;
  std::mutex run_mutex_;  // serializes run() callers
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<task_node*> queue_;  // guarded by mutex_
  std::size_t in_flight_ = 0;     // queued + executing
  unsigned active_limit_ = 0;     // how many workers may run tasks right now
  unsigned active_workers_ = 0;
  std::vector<bool> slot_busy_;   // guarded by mutex_; [i] = slot i+1 held
  bool stopping_ = false;
};

}  // namespace pstlb::sched

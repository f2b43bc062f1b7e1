// Central-queue task claim rule (the HPX-like model) on the one thread_pool.
//
// Each chunk of a loop becomes an individually heap-allocated task pushed
// into one queue guarded by a mutex. That is intentionally the costliest of
// the scheduling disciplines: per-chunk allocation and a contended central
// queue are exactly the overheads the paper measures for the HPX backend
// (Tables 3 and 4 show 2-6x the instruction count of TBB). The queue belongs
// to one run; the run's team drains it while the caller is still submitting.
#pragma once

#include "sched/loop_context.hpp"

namespace pstlb::sched {

class task_queue_pool {
 public:
  /// Runs `ctx` over [0, ctx.n): one task per chunk through the run's
  /// central queue, drained by a thread_pool::global() region of up to
  /// `participants` threads (the caller submits, then drains too). Blocks
  /// until every chunk finished.
  void run(unsigned participants, const loop_context& ctx);

  /// Grows the shared worker set so `participants`-wide runs are possible.
  void ensure(unsigned participants);

  /// Process-wide instance shared by all task_futures policies.
  static task_queue_pool& global();
};

}  // namespace pstlb::sched

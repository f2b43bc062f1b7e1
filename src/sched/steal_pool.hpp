// Work-stealing claim rule (the TBB-like model) on the one thread_pool.
//
// Execution model mirrors TBB's auto_partitioner: the caller's deque starts
// with one root range covering all chunks; participants lazily binary-split
// ranges from the bottom of their own Chase–Lev deque and steal from a
// victim picked uniformly at random when out of local work, as GCC-TBB's
// scheduler does. Loads balance through the splitting tree rather than a
// central queue. Each run keeps its deques and counters to itself, so
// concurrent runs share nothing but the worker set.
//
// Locality-first stealing on multi-node machines is modelled only by the
// simulator (sim::steal_locality, bench/abl_numa_gamma); natively every
// host steals uniformly.
#pragma once

#include "sched/loop_context.hpp"

namespace pstlb::sched {

class steal_pool {
 public:
  /// Runs `ctx` over [0, ctx.n) on a thread_pool::global() region of up to
  /// `participants` threads (the caller participates). Blocks until every
  /// chunk has executed or been cancelled; concurrent runs proceed side by
  /// side on disjoint teams.
  void run(unsigned participants, const loop_context& ctx);

  /// Process-wide instance shared by all steal policies.
  static steal_pool& global();
};

}  // namespace pstlb::sched

// Work-stealing claim rule (the TBB-like model) on the one thread_pool.
//
// Execution model mirrors TBB's auto_partitioner: the caller seeds root
// ranges covering all chunks; participants lazily binary-split ranges from the
// bottom of their own Chase–Lev deque and steal from victims when out of
// local work. Loads balance through the splitting tree rather than a central
// queue. Each run keeps its deques and counters to itself, so concurrent
// runs share nothing but the worker set.
//
// Topology awareness (multi-node hosts or a PSTLB_TOPOLOGY override): the
// iteration space is pre-partitioned by sched::plan_chunk_seeds — each NUMA
// node's leader deque is seeded with the chunks whose pages its node owns —
// and thieves probe victims in locality-first order (same LLC, same node,
// then remote, with a uniform random probe between sweeps so no subset of
// deques is ever unreachable). Both are planned for the team the run
// actually claimed. On flat topologies both mechanisms reduce to the
// original single-root-seed + uniform-random-victim behaviour.
#pragma once

#include <map>
#include <mutex>
#include <utility>

#include "sched/locality.hpp"
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

 private:
  /// The cached plan for `participants` on `topo`, or nullptr when it
  /// spans a single node.
  const locality_plan* plan_for(const numa::topology_tree& topo,
                                unsigned participants);

  // Plans are pure functions of (topology, participants); cached per pair
  // since every tree numa::tree() returns stays alive. Map nodes
  // never move, so a returned plan stays valid after the lock is dropped.
  std::mutex plans_mutex_;
  std::map<std::pair<const numa::topology_tree*, unsigned>, locality_plan>
      plans_;
};

}  // namespace pstlb::sched

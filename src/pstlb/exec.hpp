// Execution policies and the dispatch every algorithm front-end funnels
// through.
//
// Like std::execution policies, a policy selects an implementation; unlike
// the std ones it is one runtime value — the backend that runs the parallel
// loops plus the knobs pSTL-Bench studies (thread count, scheduling grain,
// sequential-fallback threshold, SIMD leaves). Which scan, pack and sort
// pipeline runs is decided by the input alone, in the algorithm front-ends.
// Front-ends take `const exec::policy&`, so every algorithm compiles once per
// (iterator, functor) and the backend can be chosen at run time.
//
// Policy -> paper backend correspondence (see make_policy for the profiles):
//   seq                GCC-SEQ baseline
//   unseq              sequential with SIMD leaves (std::execution::unseq)
//   fork_join_policy   GCC-GNU (GOMP static scheduling; defaults to the GNU
//                      parallel mode's "sequential below 2^10" heuristic)
//   steal_policy       GCC-TBB / ICC-TBB (work stealing, lazy splitting)
//   task_policy        GCC-HPX (per-chunk futures through a central queue)
//   omp_static_policy  NVC-OMP (fork-join with no fallback threshold)
//   omp_dynamic_policy extension: OpenMP schedule(dynamic) semantics
#pragma once

#include <optional>

#include "backends/backend.hpp"
#include "pstlb/common.hpp"
#include "sched/arena.hpp"
#include "sched/thread_pool.hpp"

namespace pstlb::exec {

/// Thread count used when a policy does not specify one: PSTL_NUM_THREADS,
/// then OMP_NUM_THREADS (Section 3.2 of the paper), then hardware, read once
/// per process.
using sched::default_threads;

struct policy {
  /// The execution model that runs the parallel loops; seq never forks.
  backends::backend_id backend = backends::backend_id::seq;
  /// Participants for parallel loops.
  unsigned threads = default_threads();
  /// Scheduling granularity in elements; 0 = automatic.
  index_t grain = 0;
  /// Inputs strictly smaller than this run sequentially (the GNU parallel
  /// mode behaviour the paper observes around 2^10 elements).
  index_t seq_threshold = 0;
  /// par_unseq bit: when set, eligible leaves run the runtime-dispatched
  /// SIMD kernels (detail/simd/) instead of the classic element loop. Rides
  /// the policy value through arena admission and backend selection
  /// unchanged — vectorization is purely a leaf-level property. Reduction
  /// results over floating point may reassociate, the licence
  /// std::execution::unseq grants.
  bool unseq = false;
};

/// The policy profile of backend `id` with `threads` participants
/// (0 = default_threads()).
inline policy make_policy(backends::backend_id id, unsigned threads = 0) {
  policy p;
  p.backend = id;
  if (threads != 0) { p.threads = threads; }
  // fork_join keeps GNU parallel mode's "sequential below 2^10" rule and
  // every other profile the defaults. omp_static (NVC-OMP) is the same
  // fork-join engine with no fallback threshold. NVC-OMP's sequential
  // inclusive_scan (Section 5.4) and GCC-GNU's one-round R-way merge
  // (Section 5.6) are modelled by the sim, not natively.
  if (id == backends::backend_id::fork_join) { p.seq_threshold = index_t{1} << 10; }
  return p;
}

/// A policy preset to backend `Id`'s profile. Constructor-only, so it is a
/// plain `policy` value in every front-end.
template <backends::backend_id Id>
struct preset : policy {
  preset() : policy(make_policy(Id)) {}
  explicit preset(unsigned t) : preset() { threads = t; }
};

using fork_join_policy = preset<backends::backend_id::fork_join>;
using omp_static_policy = preset<backends::backend_id::omp_static>;
/// Extension beyond the paper's set: dynamically-claimed chunks over the
/// fork-join pool (OpenMP schedule(dynamic) semantics).
using omp_dynamic_policy = preset<backends::backend_id::omp_dynamic>;
using steal_policy = preset<backends::backend_id::steal>;
using task_policy = preset<backends::backend_id::task_futures>;

/// Copy of `p` with the par_unseq bit set (std::execution::par_unseq
/// analogue for any policy: pstlb::exec::with_unseq(steal_policy{8})).
inline policy with_unseq(policy p) {
  p.unseq = true;
  return p;
}

/// Ready-made values in the spirit of std::execution::seq / unseq.
inline const policy seq = make_policy(backends::backend_id::seq, 1);
inline const policy unseq = with_unseq(seq);

/// One parallel call's claim on the machine (DESIGN.md §17): decides whether
/// the call may run in parallel and on which backend, and holds the arena
/// grant and the thread's arena binding until the call returns.
///
///   - Inside another region (sched::current_cancel() is set) the call
///     rides the enclosing call's grant: it skips the arena and runs at the
///     policy's width as a nested pool region, which gets whatever workers
///     are idle and runs on its caller alone when none are.
///   - Otherwise the call asks its arena for cores on the process-wide
///     ledger and runs at the granted width, or sequentially when the
///     arena's cap says no.
class admission {
 public:
  admission(const policy& p, index_t n);
  admission(const admission&) = delete;
  admission& operator=(const admission&) = delete;

  /// False when the call must take its sequential path.
  bool parallel() const noexcept { return parallel_; }
  const backends::backend& backend() const noexcept { return backend_; }
  /// The policy's grain, or the default for the granted width.
  index_t grain() const noexcept { return grain_; }

 private:
  sched::arena::ticket ticket_;
  std::optional<sched::arena::scoped_bind> bind_;
  backends::backend backend_;
  index_t grain_ = 1;
  bool parallel_ = false;
};

/// Central dispatch: runs `par_fn(backend, grain)` when the policy, input
/// size and arena admission allow parallel execution,
/// otherwise `seq_fn()`. Every algorithm front-end funnels through here, so
/// the fallback rules live in one place; a pool that fails to start sheds
/// inside backends::run instead. The scan and pack front-ends first send an
/// input that is one scan chunk to their sequential path
/// (backends::fits_one_scan_chunk), since it would run on the caller anyway,
/// and sort and stable_sort one of at most detail::sort_seq_cutoff elements,
/// which std::sort beats on the host.
///
/// Iterator requirement: the parallel bodies index their iterators
/// (`first + i`), so every iterator passed to a front-end must be
/// random-access — the same practical requirement TBB-based backends have.
template <class SeqFn, class ParFn>
decltype(auto) dispatch(const policy& p, index_t n, SeqFn&& seq_fn, ParFn&& par_fn) {
  if (p.backend == backends::backend_id::seq || p.threads <= 1 || n <= 1 ||
      n < p.seq_threshold) {
    return seq_fn();
  }
  const admission call(p, n);
  if (!call.parallel()) { return seq_fn(); }
  return par_fn(call.backend(), call.grain());
}

}  // namespace pstlb::exec

/// std::execution-shaped spelling of the four canonical policies.
/// `par`/`par_unseq` are work-stealing (the paper's best-scaling backend);
/// pick a concrete exec::*_policy directly to choose another backend, and
/// exec::with_unseq to add vector leaves to it.
namespace pstlb::execution {
using exec::seq;
using exec::unseq;
inline const exec::steal_policy par{};
inline const exec::policy par_unseq = exec::with_unseq(exec::steal_policy{});
}  // namespace pstlb::execution

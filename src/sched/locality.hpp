// Topology-aware scheduling support: locality-first steal ordering and
// page-registry-driven initial chunk placement.
//
// The paper's scaling cliffs above one socket (Mach A/B/C, Section 5) are
// remote-memory effects: a thief that steals from a random victim drags the
// victim's pages across the socket interconnect. This module derives, from
// the numa::topology_tree, (a) a per-worker victim order — same-LLC first,
// then same-node, then remote — and (b) an initial assignment of chunk
// ranges to the worker groups whose NUMA node owns the underlying pages
// (first-touch model), so stealing is demoted from the primary distribution
// mechanism to overflow handling.
//
// All planning is pure (tree + participant count in, plan out) so tests can
// exercise 2-node/8-node shapes on a single-node host. On flat topologies
// every plan is inactive and the steal pool behaves exactly as before.
#pragma once

#include <cstddef>
#include <vector>

#include "numa/page_registry.hpp"
#include "numa/topology.hpp"
#include "pstlb/common.hpp"
#include "sched/loop_context.hpp"

namespace pstlb::sched {

/// Per-run locality plan for `participants` workers. Worker `t` is assumed
/// to occupy cpu `t * cpus / participants` (even spread across the
/// topology, identity when participants == cpus) — without pinning this is
/// a model, not a guarantee, matching the simulator's scatter placement.
struct locality_plan {
  unsigned participants = 1;
  unsigned groups = 1;                        // distinct NUMA nodes in use
  std::vector<unsigned> node_of;              // tid -> node id
  std::vector<unsigned> leader_of;            // node id -> lowest tid, or npos
  std::vector<std::vector<unsigned>> victims;  // tid -> locality-first order

  static constexpr unsigned npos = ~0u;

  /// Locality machinery engages only when workers span multiple nodes.
  bool active() const noexcept { return groups > 1; }
};

locality_plan make_locality_plan(const numa::topology_tree& topo,
                                 unsigned participants);

/// TLS hint installed by algorithm front-ends around dispatch: the loop at
/// index i reads/writes `base + i * bytes_per_index`. The steal pool uses it
/// to look the allocation up in numa::page_registry and seed chunks onto the
/// workers of the owning node. A null/zero hint (non-contiguous iterators,
/// unregistered memory) falls back to the legacy single root seed.
struct data_hint {
  const void* base = nullptr;
  std::size_t bytes_per_index = 0;
};

class scoped_data_hint {
 public:
  scoped_data_hint() noexcept;  // disengaged: leaves the current hint alone
  explicit scoped_data_hint(const void* base, std::size_t bytes_per_index) noexcept;
  ~scoped_data_hint();
  scoped_data_hint(const scoped_data_hint&) = delete;
  scoped_data_hint& operator=(const scoped_data_hint&) = delete;

 private:
  data_hint saved_;
  bool engaged_ = false;
};

/// Current thread's hint; {nullptr, 0} when none installed.
data_hint current_data_hint() noexcept;

/// Explicit chunk -> node map, for loops whose placement is not an affine
/// function of the index (samplesort bucket loops). Takes precedence over
/// the data hint.
using chunk_home_fn = unsigned (*)(const void* state, index_t chunk);

class scoped_chunk_home {
 public:
  scoped_chunk_home() noexcept;  // disengaged
  scoped_chunk_home(chunk_home_fn fn, const void* state) noexcept;
  ~scoped_chunk_home();
  scoped_chunk_home(const scoped_chunk_home&) = delete;
  scoped_chunk_home& operator=(const scoped_chunk_home&) = delete;

 private:
  chunk_home_fn saved_fn_ = nullptr;
  const void* saved_state_ = nullptr;
  bool engaged_ = false;
};

chunk_home_fn current_chunk_home_fn() noexcept;
const void* current_chunk_home_state() noexcept;

/// One seeded range: chunks [begin, end) pushed into worker `tid`'s deque.
struct chunk_seed {
  unsigned tid = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// Home node of byte `offset` within a registered allocation under the
/// first-touch model: sequential_touch puts everything on the allocating
/// worker's node; parallel/node-affine touch splits pages into
/// `touch_threads` contiguous slices, slice w living on node_of[w].
unsigned home_node_of(const numa::allocation_info& info, std::size_t offset,
                      const locality_plan& plan);

/// Plans the initial seeding of `chunks` chunks across the plan's node
/// leaders: consults the calling thread's chunk-home map first, then its
/// data hint resolved through numa::page_registry, and groups contiguous
/// same-node runs into one seed each. Falls back to a single {tid 0} seed
/// covering everything when no placement information is available. The
/// returned seeds always cover [0, chunks) exactly once, in order.
std::vector<chunk_seed> plan_chunk_seeds(const loop_context& ctx,
                                         const locality_plan& plan,
                                         index_t chunks);

}  // namespace pstlb::sched

// Host topology discovery (page size, NUMA node count, core count) and the
// cpu hierarchy tree (node > LLC > physical core > SMT sibling).
//
// On the paper's machines this reports 2 or 8 NUMA nodes; inside a plain
// container it usually reports a single node. The simulator (src/sim) does
// not use this — it carries its own Machine descriptions from Table 2. The
// native first-touch allocator reads the page size, and the BENCH envelope
// records the hierarchy as the host's fingerprint; no scheduler reads it.
//
// The hierarchy is discovered from sysfs (`/sys/devices/system`), but every
// parser takes the tree root as a parameter so tests can point it at fixture
// trees.
#pragma once

#include <cstddef>
#include <filesystem>
#include <vector>

namespace pstlb::numa {

struct topology_info {
  std::size_t page_size = 4096;
  unsigned numa_nodes = 1;
  unsigned cores = 1;
};

/// Cached process-wide topology snapshot.
const topology_info& topology();

/// The cpu hierarchy. Ids are dense: node ids in [0, nodes), LLC ids in
/// [0, llcs) unique across nodes, core ids in [0, cores) unique across LLCs.
/// SMT siblings share a core id.
struct topology_tree {
  unsigned cpus = 1;
  unsigned nodes = 1;
  unsigned llcs = 1;
  unsigned cores = 1;
  std::vector<unsigned> node_of_cpu;  // size cpus
  std::vector<unsigned> llc_of_cpu;   // size cpus
  std::vector<unsigned> core_of_cpu;  // size cpus

  /// True when the hierarchy carries no locality information (one node and
  /// one LLC).
  bool flat() const noexcept { return nodes <= 1 && llcs <= 1; }
};

/// Degenerate tree: one node, one LLC, every cpu its own core.
topology_tree flat_tree(unsigned cpus);

/// Discovers the hierarchy from a sysfs-shaped tree: `root/node/nodeN/cpulist`
/// for node membership, `root/cpu/cpuN/cache/index3/shared_cpu_list` (index2
/// as fallback) for LLC sharing, `root/cpu/cpuN/topology/thread_siblings_list`
/// for SMT. Missing pieces degrade gracefully: no node dirs -> one node, no
/// cache info -> one LLC per node, no siblings info -> one cpu per core.
/// `cpu_fallback` bounds the cpu count when `root/cpu` has no cpuN entries.
topology_tree discover_tree(const std::filesystem::path& root,
                            unsigned cpu_fallback);

/// The host's hierarchy, discovered from /sys/devices/system once at first
/// use. The reference stays valid for the process lifetime.
const topology_tree& tree();

}  // namespace pstlb::numa

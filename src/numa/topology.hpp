// Host topology discovery: the page size and the counts of the cpu
// hierarchy (NUMA node > LLC > physical core > logical cpu).
//
// On the paper's machines this reports 2 or 8 NUMA nodes; inside a plain
// container it usually reports a single node. The simulator (src/sim) does
// not use this — it carries its own Machine descriptions from Table 2. The
// native first-touch allocator reads the page size, and the BENCH envelope
// records the counts as the host's fingerprint; no scheduler reads them.
//
// The counts are discovered from sysfs (`/sys/devices/system`), but the
// parser takes the tree root as a parameter so tests can point it at fixture
// trees.
#pragma once

#include <cstddef>
#include <filesystem>

namespace pstlb::numa {

struct topology_info {
  std::size_t page_size = 4096;
  unsigned cpus = 1;   // logical cpus
  unsigned nodes = 1;  // NUMA nodes
  unsigned llcs = 1;   // last-level caches, counted across nodes
  unsigned cores = 1;  // physical cores: SMT siblings count once
};

/// Discovers the counts from a sysfs-shaped tree: `root/node/nodeN/cpulist`
/// for node membership, `root/cpu/cpuN/cache/index3/shared_cpu_list` (index2
/// as fallback) for LLC sharing, `root/cpu/cpuN/topology/thread_siblings_list`
/// for SMT. Missing pieces degrade gracefully: no node dirs -> one node, no
/// cache info -> one LLC per node, no siblings info -> one cpu per core.
/// `cpu_fallback` bounds the cpu count when `root/cpu` has no cpuN entries.
topology_info discover_topology(const std::filesystem::path& root,
                                unsigned cpu_fallback);

/// The host's topology, discovered from /sys/devices/system once at first
/// use. The reference stays valid for the process lifetime.
const topology_info& topology();

}  // namespace pstlb::numa

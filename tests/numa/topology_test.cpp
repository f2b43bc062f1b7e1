#include "numa/topology.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace pstlb::numa {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ sysfs discovery

/// Builds a sysfs-shaped fixture tree: `nodes` NUMA nodes, `cpus_per_node`
/// cpus each, one LLC per node, no SMT. Layout matches what discover_topology
/// reads from /sys/devices/system.
class SysfsFixture {
 public:
  explicit SysfsFixture(const std::string& name) {
    root_ = fs::path(::testing::TempDir()) / name;
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~SysfsFixture() { fs::remove_all(root_); }

  const fs::path& root() const { return root_; }

  void add_cpu(unsigned cpu, const std::string& llc_share,
               const std::string& siblings) {
    const fs::path dir = root_ / "cpu" / ("cpu" + std::to_string(cpu));
    if (!llc_share.empty()) {
      write(dir / "cache" / "index3" / "shared_cpu_list", llc_share);
    }
    if (!siblings.empty()) {
      write(dir / "topology" / "thread_siblings_list", siblings);
    }
    fs::create_directories(dir);
  }

  void add_node(unsigned node, const std::string& cpulist) {
    write(root_ / "node" / ("node" + std::to_string(node)) / "cpulist", cpulist);
  }

 private:
  static void write(const fs::path& file, const std::string& contents) {
    fs::create_directories(file.parent_path());
    std::ofstream(file) << contents << "\n";
  }
  fs::path root_;
};

TEST(TopologySpec, FlatTreeIsFlat) {
  // A root with no cpu or node entries: the cpu fallback, one node, one
  // LLC, and every cpu its own core.
  SysfsFixture fx("pstlb_topo_empty");
  const topology_info t = discover_topology(fx.root(), 8);
  EXPECT_EQ(t.cpus, 8u);
  EXPECT_EQ(t.nodes, 1u);
  EXPECT_EQ(t.llcs, 1u);
  EXPECT_EQ(t.cores, 8u);
}

TEST(TopologyDiscover, SingleNodeTree) {
  SysfsFixture fx("pstlb_topo_1node");
  for (unsigned c = 0; c < 4; ++c) { fx.add_cpu(c, "0-3", ""); }
  const topology_info t = discover_topology(fx.root(), 1);
  EXPECT_EQ(t.cpus, 4u);
  EXPECT_EQ(t.nodes, 1u);
  EXPECT_EQ(t.llcs, 1u);
  EXPECT_EQ(t.cores, 4u);
}

TEST(TopologyDiscover, TwoNodeTree) {
  SysfsFixture fx("pstlb_topo_2node");
  fx.add_node(0, "0-1");
  fx.add_node(1, "2-3");
  fx.add_cpu(0, "0-1", "0");
  fx.add_cpu(1, "0-1", "1");
  fx.add_cpu(2, "2-3", "2");
  fx.add_cpu(3, "2-3", "3");
  const topology_info t = discover_topology(fx.root(), 1);
  EXPECT_EQ(t.cpus, 4u);
  EXPECT_EQ(t.nodes, 2u);
  EXPECT_EQ(t.llcs, 2u);
  EXPECT_EQ(t.cores, 4u);
}

TEST(TopologyDiscover, EightNodeTreeWithSmt) {
  SysfsFixture fx("pstlb_topo_8node");
  for (unsigned n = 0; n < 8; ++n) {
    const unsigned base = n * 4;
    const std::string span =
        std::to_string(base) + "-" + std::to_string(base + 3);
    fx.add_node(n, span);
    for (unsigned c = base; c < base + 4; ++c) {
      // SMT pairs: (base, base+1) and (base+2, base+3) share a core.
      const unsigned buddy = c ^ 1u;
      const std::string sib = std::to_string(std::min(c, buddy)) + "," +
                              std::to_string(std::max(c, buddy));
      fx.add_cpu(c, span, sib);
    }
  }
  const topology_info t = discover_topology(fx.root(), 1);
  EXPECT_EQ(t.cpus, 32u);
  EXPECT_EQ(t.nodes, 8u);
  EXPECT_EQ(t.llcs, 8u);
  EXPECT_EQ(t.cores, 16u);  // SMT pairs count once
}

TEST(TopologyDiscover, MissingCacheInfoFallsBackToNodes) {
  SysfsFixture fx("pstlb_topo_nocache");
  fx.add_node(0, "0-1");
  fx.add_node(1, "2-3");
  for (unsigned c = 0; c < 4; ++c) { fx.add_cpu(c, "", ""); }
  const topology_info t = discover_topology(fx.root(), 1);
  EXPECT_EQ(t.nodes, 2u);
  // No cache info: one LLC per node; no siblings info: one core per cpu.
  EXPECT_EQ(t.llcs, 2u);
  EXPECT_EQ(t.cores, 4u);
}

}  // namespace
}  // namespace pstlb::numa

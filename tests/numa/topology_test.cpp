#include "numa/topology.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace pstlb::numa {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- spec parsing

TEST(TopologySpec, TwoNodeSpec) {
  const auto t = parse_topology_spec("2x1x2");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->cpus, 4u);
  EXPECT_EQ(t->nodes, 2u);
  EXPECT_EQ(t->llcs, 2u);
  EXPECT_EQ(t->cores, 4u);
  EXPECT_EQ(t->node_of_cpu, (std::vector<unsigned>{0, 0, 1, 1}));
  EXPECT_EQ(t->llc_of_cpu, (std::vector<unsigned>{0, 0, 1, 1}));
  EXPECT_FALSE(t->flat());
}

TEST(TopologySpec, SmtComponentSharesCores) {
  const auto t = parse_topology_spec("2x2x2x2");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->cpus, 16u);
  EXPECT_EQ(t->nodes, 2u);
  EXPECT_EQ(t->llcs, 4u);
  EXPECT_EQ(t->cores, 8u);
  // SMT siblings are adjacent cpu ids sharing a core id.
  EXPECT_EQ(t->core_of_cpu[0], t->core_of_cpu[1]);
  EXPECT_NE(t->core_of_cpu[1], t->core_of_cpu[2]);
  // cpu 8 is the first cpu of the second node.
  EXPECT_EQ(t->node_of_cpu[7], 0u);
  EXPECT_EQ(t->node_of_cpu[8], 1u);
}

TEST(TopologySpec, EightNodeSpec) {
  const auto t = parse_topology_spec("8x2x8");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->cpus, 128u);
  EXPECT_EQ(t->nodes, 8u);
  EXPECT_EQ(t->llcs, 16u);
  EXPECT_EQ(t->node_of_cpu[127], 7u);
}

TEST(TopologySpec, RejectsMalformedSpecs) {
  EXPECT_FALSE(parse_topology_spec("").has_value());
  EXPECT_FALSE(parse_topology_spec("2").has_value());
  EXPECT_FALSE(parse_topology_spec("2x2").has_value());
  EXPECT_FALSE(parse_topology_spec("2x2x2x2x2").has_value());
  EXPECT_FALSE(parse_topology_spec("0x1x1").has_value());
  EXPECT_FALSE(parse_topology_spec("axbxc").has_value());
  EXPECT_FALSE(parse_topology_spec("2x2x2junk").has_value());
  EXPECT_FALSE(parse_topology_spec("100000x4x4").has_value());  // > 4096 cpus
}

TEST(TopologySpec, FlatTreeIsFlat) {
  const topology_tree t = flat_tree(8);
  EXPECT_EQ(t.cpus, 8u);
  EXPECT_TRUE(t.flat());
  EXPECT_EQ(t.node_of_cpu[7], 0u);
}

// ------------------------------------------------------------ sysfs discovery

/// Builds a sysfs-shaped fixture tree: `nodes` NUMA nodes, `cpus_per_node`
/// cpus each, one LLC per node, no SMT. Layout matches what discover_tree
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

TEST(TopologyDiscover, SingleNodeTree) {
  SysfsFixture fx("pstlb_topo_1node");
  for (unsigned c = 0; c < 4; ++c) { fx.add_cpu(c, "0-3", ""); }
  const topology_tree t = discover_tree(fx.root(), 1);
  EXPECT_EQ(t.cpus, 4u);
  EXPECT_EQ(t.nodes, 1u);
  EXPECT_EQ(t.llcs, 1u);
  EXPECT_TRUE(t.flat());
}

TEST(TopologyDiscover, TwoNodeTree) {
  SysfsFixture fx("pstlb_topo_2node");
  fx.add_node(0, "0-1");
  fx.add_node(1, "2-3");
  fx.add_cpu(0, "0-1", "0");
  fx.add_cpu(1, "0-1", "1");
  fx.add_cpu(2, "2-3", "2");
  fx.add_cpu(3, "2-3", "3");
  const topology_tree t = discover_tree(fx.root(), 1);
  EXPECT_EQ(t.cpus, 4u);
  EXPECT_EQ(t.nodes, 2u);
  EXPECT_EQ(t.llcs, 2u);
  EXPECT_EQ(t.cores, 4u);
  EXPECT_EQ(t.node_of_cpu, (std::vector<unsigned>{0, 0, 1, 1}));
  EXPECT_NE(t.llc_of_cpu[0], t.llc_of_cpu[2]);
  EXPECT_FALSE(t.flat());
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
  const topology_tree t = discover_tree(fx.root(), 1);
  EXPECT_EQ(t.cpus, 32u);
  EXPECT_EQ(t.nodes, 8u);
  EXPECT_EQ(t.llcs, 8u);
  EXPECT_EQ(t.cores, 16u);
  EXPECT_EQ(t.core_of_cpu[0], t.core_of_cpu[1]);
  EXPECT_NE(t.core_of_cpu[1], t.core_of_cpu[2]);
  EXPECT_EQ(t.node_of_cpu[31], 7u);
}

TEST(TopologyDiscover, MissingCacheInfoFallsBackToNodes) {
  SysfsFixture fx("pstlb_topo_nocache");
  fx.add_node(0, "0-1");
  fx.add_node(1, "2-3");
  for (unsigned c = 0; c < 4; ++c) { fx.add_cpu(c, "", ""); }
  const topology_tree t = discover_tree(fx.root(), 1);
  EXPECT_EQ(t.nodes, 2u);
  // No cache info: one LLC per node.
  EXPECT_EQ(t.llcs, 2u);
  EXPECT_EQ(t.llc_of_cpu, t.node_of_cpu);
}

// ----------------------------------------------------------------- env-driven

TEST(TopologyTree, EnvSpecOverridesAndCaches) {
  // PSTLB_TOPOLOGY is resolved once: a later setenv changes nothing.
  const topology_tree& initial = numa::tree();
  {
    const char* const saved = std::getenv("PSTLB_TOPOLOGY");
    const std::string restore = saved != nullptr ? saved : "";
    ::setenv("PSTLB_TOPOLOGY", initial.flat() ? "2x1x2" : "flat", 1);
    EXPECT_EQ(&numa::tree(), &initial);
    if (saved != nullptr) {
      ::setenv("PSTLB_TOPOLOGY", restore.c_str(), 1);
    } else {
      ::unsetenv("PSTLB_TOPOLOGY");
    }
  }

  {
    const scoped_topology_for_testing two_nodes("2x1x2");
    const topology_tree& spec = numa::tree();
    EXPECT_EQ(spec.nodes, 2u);
    EXPECT_EQ(spec.cpus, 4u);
    EXPECT_EQ(&numa::tree(), &spec);  // stable until the hook ends
    {
      const scoped_topology_for_testing flat("flat");
      EXPECT_TRUE(numa::tree().flat());
      EXPECT_NE(&numa::tree(), &spec);
      // Earlier reference still valid and unchanged.
      EXPECT_EQ(spec.nodes, 2u);
    }
    EXPECT_EQ(&numa::tree(), &spec);  // the inner hook restored its predecessor
    {
      const scoped_topology_for_testing malformed("not-a-spec");
      EXPECT_TRUE(numa::tree().flat());  // malformed -> flat fallback
    }
  }
  EXPECT_EQ(&numa::tree(), &initial);
}

}  // namespace
}  // namespace pstlb::numa

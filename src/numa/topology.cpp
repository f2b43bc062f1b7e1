#include "numa/topology.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>

namespace pstlb::numa {

namespace {

topology_info discover() {
  topology_info info;
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page > 0) { info.page_size = static_cast<std::size_t>(page); }
  info.cores = std::thread::hardware_concurrency();
  if (info.cores == 0) { info.cores = 1; }

  // Count /sys/devices/system/node/nodeN entries when the sysfs NUMA
  // interface is available; otherwise assume a single node.
  std::error_code ec;
  unsigned nodes = 0;
  const std::filesystem::path base{"/sys/devices/system/node"};
  if (std::filesystem::is_directory(base, ec) && !ec) {
    for (const auto& entry : std::filesystem::directory_iterator(base, ec)) {
      if (ec) { break; }
      const std::string name = entry.path().filename().string();
      if (name.rfind("node", 0) == 0 &&
          name.find_first_not_of("0123456789", 4) == std::string::npos &&
          name.size() > 4) {
        ++nodes;
      }
    }
  }
  info.numa_nodes = nodes > 0 ? nodes : 1;
  return info;
}

/// Parses a sysfs cpulist ("0-3,8,10-11") into cpu ids. Malformed tokens are
/// skipped (sysfs is trusted, fixtures might not be).
std::vector<unsigned> parse_cpulist(std::string_view list) {
  std::vector<unsigned> cpus;
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) { comma = list.size(); }
    const std::string_view token = list.substr(pos, comma - pos);
    pos = comma + 1;
    unsigned lo = 0;
    const char* tb = token.data();
    const char* te = token.data() + token.size();
    auto [p, ec] = std::from_chars(tb, te, lo);
    if (ec != std::errc{}) { continue; }
    unsigned hi = lo;
    if (p != te && *p == '-') {
      auto [q, ec2] = std::from_chars(p + 1, te, hi);
      if (ec2 != std::errc{} || hi < lo) { continue; }
      (void)q;
    }
    for (unsigned c = lo; c <= hi && c - lo < 4096; ++c) { cpus.push_back(c); }
  }
  return cpus;
}

std::string read_first_line(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::string line;
  if (in) { std::getline(in, line); }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r' ||
                           line.back() == ' ')) {
    line.pop_back();
  }
  return line;
}

unsigned count_numbered_dirs(const std::filesystem::path& dir,
                             std::string_view prefix) {
  std::error_code ec;
  unsigned highest = 0;
  bool any = false;
  if (!std::filesystem::is_directory(dir, ec) || ec) { return 0; }
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (ec) { break; }
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size()) { continue; }
    const std::string_view digits = std::string_view(name).substr(prefix.size());
    if (digits.find_first_not_of("0123456789") != std::string_view::npos) {
      continue;
    }
    unsigned id = 0;
    std::from_chars(digits.data(), digits.data() + digits.size(), id);
    highest = std::max(highest, id);
    any = true;
  }
  return any ? highest + 1 : 0;
}

/// Assigns dense group ids to cpus by the canonical string of a per-cpu
/// sharing list (shared_cpu_list / thread_siblings_list). Cpus whose file is
/// missing fall back to `fallback_of[cpu]` offset into its own id space.
std::vector<unsigned> group_by_list(
    const std::filesystem::path& cpu_root, unsigned cpus,
    const char* relative, const std::vector<unsigned>& fallback_of,
    unsigned& group_count) {
  std::vector<unsigned> group(cpus, 0);
  std::map<std::string, unsigned> ids;
  std::vector<bool> assigned(cpus, false);
  for (unsigned c = 0; c < cpus; ++c) {
    const auto path = cpu_root / ("cpu" + std::to_string(c)) / relative;
    const std::string line = read_first_line(path);
    if (line.empty()) { continue; }
    const auto [it, inserted] =
        ids.try_emplace(line, static_cast<unsigned>(ids.size()));
    group[c] = it->second;
    assigned[c] = true;
  }
  // Cpus with no sharing info: give each fallback group its own fresh id so
  // a partially-populated fixture still yields a consistent hierarchy.
  std::map<unsigned, unsigned> fallback_ids;
  for (unsigned c = 0; c < cpus; ++c) {
    if (assigned[c]) { continue; }
    const unsigned fb = c < fallback_of.size() ? fallback_of[c] : 0;
    const auto [it, inserted] = fallback_ids.try_emplace(fb, 0u);
    if (inserted) {
      it->second = static_cast<unsigned>(ids.size() + fallback_ids.size() - 1);
    }
    group[c] = it->second;
  }
  group_count = static_cast<unsigned>(ids.size() + fallback_ids.size());
  if (group_count == 0) { group_count = 1; }
  return group;
}

}  // namespace

const topology_info& topology() {
  static const topology_info info = discover();
  return info;
}

topology_tree flat_tree(unsigned cpus) {
  topology_tree t;
  t.cpus = std::max(1u, cpus);
  t.nodes = 1;
  t.llcs = 1;
  t.cores = t.cpus;
  t.node_of_cpu.assign(t.cpus, 0);
  t.llc_of_cpu.assign(t.cpus, 0);
  t.core_of_cpu.resize(t.cpus);
  for (unsigned c = 0; c < t.cpus; ++c) { t.core_of_cpu[c] = c; }
  return t;
}

topology_tree discover_tree(const std::filesystem::path& root,
                            unsigned cpu_fallback) {
  const std::filesystem::path cpu_root = root / "cpu";
  const std::filesystem::path node_root = root / "node";

  unsigned cpus = count_numbered_dirs(cpu_root, "cpu");
  if (cpus == 0) { cpus = std::max(1u, cpu_fallback); }

  topology_tree t = flat_tree(cpus);

  // Node membership from node/nodeN/cpulist.
  const unsigned node_dirs = count_numbered_dirs(node_root, "node");
  if (node_dirs > 1) {
    std::vector<unsigned> node_of(cpus, 0);
    unsigned seen = 0;
    for (unsigned n = 0; n < node_dirs; ++n) {
      const auto list = parse_cpulist(
          read_first_line(node_root / ("node" + std::to_string(n)) / "cpulist"));
      for (const unsigned c : list) {
        if (c < cpus) {
          node_of[c] = n;
          ++seen;
        }
      }
    }
    if (seen > 0) {
      t.node_of_cpu = std::move(node_of);
      t.nodes = node_dirs;
    }
  }

  // LLC sharing from cache/index3 (index2 on hosts without an L3).
  unsigned llcs = 0;
  std::vector<unsigned> llc_of = group_by_list(
      cpu_root, cpus, "cache/index3/shared_cpu_list", t.node_of_cpu, llcs);
  {
    // If no cpu had index3 info, retry with index2 before falling back to
    // one LLC per node.
    bool any = false;
    for (unsigned c = 0; c < cpus && !any; ++c) {
      any = !read_first_line(cpu_root / ("cpu" + std::to_string(c)) /
                             "cache/index3/shared_cpu_list")
                 .empty();
    }
    if (!any) {
      llc_of = group_by_list(cpu_root, cpus, "cache/index2/shared_cpu_list",
                             t.node_of_cpu, llcs);
      bool any2 = false;
      for (unsigned c = 0; c < cpus && !any2; ++c) {
        any2 = !read_first_line(cpu_root / ("cpu" + std::to_string(c)) /
                                "cache/index2/shared_cpu_list")
                    .empty();
      }
      if (!any2) {
        llc_of = t.node_of_cpu;  // one LLC per node
        llcs = t.nodes;
      }
    }
  }
  t.llc_of_cpu = std::move(llc_of);
  t.llcs = std::max(1u, llcs);

  // Physical cores from topology/thread_siblings_list.
  unsigned cores = 0;
  std::vector<unsigned> core_of = group_by_list(
      cpu_root, cpus, "topology/thread_siblings_list", t.llc_of_cpu, cores);
  {
    bool any = false;
    for (unsigned c = 0; c < cpus && !any; ++c) {
      any = !read_first_line(cpu_root / ("cpu" + std::to_string(c)) /
                             "topology/thread_siblings_list")
                 .empty();
    }
    if (any) {
      t.core_of_cpu = std::move(core_of);
      t.cores = std::max(1u, cores);
    }
  }
  return t;
}

const topology_tree& tree() {
  static const topology_tree discovered =
      discover_tree("/sys/devices/system", topology().cores);
  return discovered;
}

}  // namespace pstlb::numa

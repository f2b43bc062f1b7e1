#include "numa/topology.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace pstlb::numa {

namespace {

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

/// Cpus grouped by a per-cpu sharing list, and the number of groups.
struct grouping {
  std::vector<unsigned> of;  // group id per cpu; empty when no cpu had a list
  unsigned count = 0;
};

/// Assigns dense group ids to cpus by the canonical string of a per-cpu
/// sharing list (shared_cpu_list / thread_siblings_list). Cpus whose file is
/// missing fall back to `fallback_of[cpu]` offset into its own id space.
grouping group_by_list(const std::filesystem::path& cpu_root, unsigned cpus,
                       const char* relative,
                       const std::vector<unsigned>& fallback_of) {
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
  if (ids.empty()) { return {}; }
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
  return {std::move(group), static_cast<unsigned>(ids.size() + fallback_ids.size())};
}

}  // namespace

topology_info discover_topology(const std::filesystem::path& root,
                                unsigned cpu_fallback) {
  const std::filesystem::path cpu_root = root / "cpu";
  const std::filesystem::path node_root = root / "node";

  topology_info t;
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page > 0) { t.page_size = static_cast<std::size_t>(page); }
  t.cpus = count_numbered_dirs(cpu_root, "cpu");
  if (t.cpus == 0) { t.cpus = std::max(1u, cpu_fallback); }
  t.cores = t.cpus;

  // Node membership from node/nodeN/cpulist.
  std::vector<unsigned> node_of(t.cpus, 0);
  const unsigned node_dirs = count_numbered_dirs(node_root, "node");
  if (node_dirs > 1) {
    bool seen = false;
    for (unsigned n = 0; n < node_dirs; ++n) {
      const auto list = parse_cpulist(
          read_first_line(node_root / ("node" + std::to_string(n)) / "cpulist"));
      for (const unsigned c : list) {
        if (c < t.cpus) {
          node_of[c] = n;
          seen = true;
        }
      }
    }
    if (seen) { t.nodes = node_dirs; }
  }

  // LLC sharing from cache/index3 (index2 on hosts without an L3), else one
  // LLC per node.
  grouping llc = group_by_list(cpu_root, t.cpus, "cache/index3/shared_cpu_list",
                               node_of);
  if (llc.of.empty()) {
    llc = group_by_list(cpu_root, t.cpus, "cache/index2/shared_cpu_list", node_of);
  }
  if (llc.of.empty()) { llc = {node_of, t.nodes}; }
  t.llcs = std::max(1u, llc.count);

  // Physical cores from topology/thread_siblings_list.
  const grouping cores = group_by_list(
      cpu_root, t.cpus, "topology/thread_siblings_list", llc.of);
  if (!cores.of.empty()) { t.cores = std::max(1u, cores.count); }
  return t;
}

const topology_info& topology() {
  static const topology_info info = discover_topology(
      "/sys/devices/system", std::max(1u, std::thread::hardware_concurrency()));
  return info;
}

}  // namespace pstlb::numa

#include "trace/stats_registry.hpp"

#include <bit>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include <unistd.h>

#include "bench_core/result_store.hpp"
#include "pstlb/env.hpp"
#include "pstlb/json_min.hpp"
#include "sched/arena.hpp"

namespace pstlb::stats {

namespace {

struct alignas(cache_line_size) op_slot {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> max_ns{0};
  std::atomic<std::uint64_t> hist[latency_buckets] = {};
};

/// The whole registry is one static array — no allocation, no registration,
/// valid from before main() to after static destruction (atexit + signal
/// dumps read it late).
op_slot& slot(op o) noexcept {
  static op_slot table[op_count];
  return table[static_cast<std::size_t>(o)];
}

std::size_t bucket_of(std::uint64_t ns) noexcept {
  const std::size_t b =
      ns == 0 ? 0 : static_cast<std::size_t>(std::bit_width(ns) - 1);
  return b < latency_buckets ? b : latency_buckets - 1;
}

/// Integer formatter for the async-signal-safe dump: writes `v` into `buf`
/// (which must hold >= 21 bytes) and returns the digit count.
std::size_t format_u64(std::uint64_t v, char* buf) noexcept {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) { buf[i] = tmp[n - 1 - i]; }
  return n;
}

void write_all(int fd, const char* data, std::size_t len) noexcept {
  while (len > 0) {
    const ssize_t w = ::write(fd, data, len);
    if (w <= 0) { return; }
    data += w;
    len -= static_cast<std::size_t>(w);
  }
}

extern "C" void stats_sigusr2_handler(int) { signal_safe_dump(STDERR_FILENO); }

/// Reads PSTLB_STATS / PSTLB_STATS_FILE at static-init time (before any
/// instrumented call can run) and registers the SIGUSR2 live-dump handler.
struct env_init {
  env_init() {
    if (env::truthy("PSTLB_STATS") || !env::string_or("PSTLB_STATS_FILE", "").empty()) {
      detail::g_enabled.store(true, std::memory_order_relaxed);
      struct sigaction sa = {};
      sa.sa_handler = stats_sigusr2_handler;
      sigemptyset(&sa.sa_mask);
      sa.sa_flags = SA_RESTART;
      sigaction(SIGUSR2, &sa, nullptr);
    }
  }
};
env_init g_env_init;

/// Registers the PSTLB_STATS_FILE at-exit dump. Statics are destroyed in
/// reverse order of construction, interleaved with atexit handlers, so
/// everything the dump reads (topology, arena registry, counter provider)
/// is constructed by one throwaway render first and outlives the handler.
bool register_exit_dump() {
  if (env::string_or("PSTLB_STATS_FILE", "").empty()) { return false; }
  std::ostringstream warm;
  write_json(warm);
  std::atexit([] { dump_to_env_file(); });
  return true;
}

void write_op_json(std::ostream& os, const op_snapshot& s) {
  os << "{\"op\":\"" << op_name(s.o) << "\",\"calls\":" << s.calls
     << ",\"total_ns\":" << s.total_ns << ",\"max_ns\":" << s.max_ns
     << ",\"p50_ns\":" << s.p50_ns() << ",\"p95_ns\":" << s.p95_ns()
     << ",\"p99_ns\":" << s.p99_ns() << ",\"hist\":[";
  // Trailing zero buckets are elided (the reader treats missing as zero).
  std::size_t last = 0;
  for (std::size_t b = 0; b < latency_buckets; ++b) {
    if (s.hist[b] != 0) { last = b + 1; }
  }
  for (std::size_t b = 0; b < last; ++b) {
    if (b != 0) { os << ','; }
    os << s.hist[b];
  }
  os << "]}";
}

/// `cap` is the per-call width cap; an arena without one (the default
/// arena) prints sched::arena::no_cap, the largest unsigned.
void write_arena_json(std::ostream& os, const sched::arena_snapshot& s) {
  std::string name;
  json_min::append_quoted(name, s.name);
  os << "{\"arena\":" << name << ",\"cap\":" << s.cap
     << ",\"admitted\":" << s.admitted << ",\"completed\":" << s.completed
     << ",\"sequential_cap\":" << s.sequential_cap
     << ",\"shed_spawnfail\":" << s.shed_spawnfail
     << ",\"shed_oom\":" << s.shed_oom
     << ",\"watchdog_fires\":" << s.watchdog_fires
     << ",\"peak_pending\":" << s.peak_pending << ",\"calls\":" << s.calls
     << ",\"p50_ns\":" << s.p50_ns() << ",\"p95_ns\":" << s.p95_ns()
     << ",\"p99_ns\":" << s.p99_ns() << "}";
}

/// `text` as a Prometheus label value: backslash, double quote and newline
/// escaped, as the text exposition format requires.
std::string prometheus_label(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string_view op_name(op o) noexcept {
  switch (o) {
    case op::for_each: return "for_each";
    case op::for_each_n: return "for_each_n";
    case op::transform: return "transform";
    case op::fill: return "fill";
    case op::fill_n: return "fill_n";
    case op::generate: return "generate";
    case op::generate_n: return "generate_n";
    case op::copy: return "copy";
    case op::copy_n: return "copy_n";
    case op::move: return "move";
    case op::swap_ranges: return "swap_ranges";
    case op::replace: return "replace";
    case op::replace_if: return "replace_if";
    case op::replace_copy: return "replace_copy";
    case op::reverse: return "reverse";
    case op::reverse_copy: return "reverse_copy";
    case op::rotate_copy: return "rotate_copy";
    case op::shift_left: return "shift_left";
    case op::shift_right: return "shift_right";
    case op::rotate: return "rotate";
    case op::adjacent_difference: return "adjacent_difference";
    case op::destroy: return "destroy";
    case op::destroy_n: return "destroy_n";
    case op::uninitialized_default_construct: return "uninitialized_default_construct";
    case op::uninitialized_value_construct: return "uninitialized_value_construct";
    case op::uninitialized_fill: return "uninitialized_fill";
    case op::uninitialized_copy: return "uninitialized_copy";
    case op::uninitialized_move: return "uninitialized_move";
    case op::reduce: return "reduce";
    case op::transform_reduce: return "transform_reduce";
    case op::count_if: return "count_if";
    case op::count: return "count";
    case op::min_element: return "min_element";
    case op::max_element: return "max_element";
    case op::minmax_element: return "minmax_element";
    case op::find_if: return "find_if";
    case op::find_if_not: return "find_if_not";
    case op::find: return "find";
    case op::any_of: return "any_of";
    case op::none_of: return "none_of";
    case op::all_of: return "all_of";
    case op::adjacent_find: return "adjacent_find";
    case op::mismatch: return "mismatch";
    case op::equal: return "equal";
    case op::is_sorted_until: return "is_sorted_until";
    case op::is_sorted: return "is_sorted";
    case op::is_heap_until: return "is_heap_until";
    case op::is_heap: return "is_heap";
    case op::is_partitioned: return "is_partitioned";
    case op::lexicographical_compare: return "lexicographical_compare";
    case op::find_first_of: return "find_first_of";
    case op::search: return "search";
    case op::search_n: return "search_n";
    case op::find_end: return "find_end";
    case op::inclusive_scan: return "inclusive_scan";
    case op::exclusive_scan: return "exclusive_scan";
    case op::transform_inclusive_scan: return "transform_inclusive_scan";
    case op::transform_exclusive_scan: return "transform_exclusive_scan";
    case op::copy_if: return "copy_if";
    case op::remove_copy: return "remove_copy";
    case op::remove_copy_if: return "remove_copy_if";
    case op::partition_copy: return "partition_copy";
    case op::unique_copy: return "unique_copy";
    case op::remove_if: return "remove_if";
    case op::remove: return "remove";
    case op::unique: return "unique";
    case op::set_union: return "set_union";
    case op::set_intersection: return "set_intersection";
    case op::set_difference: return "set_difference";
    case op::set_symmetric_difference: return "set_symmetric_difference";
    case op::includes: return "includes";
    case op::sort: return "sort";
    case op::stable_sort: return "stable_sort";
    case op::merge: return "merge";
    case op::inplace_merge: return "inplace_merge";
    case op::stable_partition: return "stable_partition";
    case op::partition: return "partition";
    case op::nth_element: return "nth_element";
    case op::partial_sort: return "partial_sort";
    case op::partial_sort_copy: return "partial_sort_copy";
    case op::op_count: break;
  }
  return "unknown";
}

namespace detail {

void record(op o, std::uint64_t ns) noexcept {
  // Registered on the first recorded call, once the program is running.
  [[maybe_unused]] static const bool exit_dump = register_exit_dump();
  op_slot& s = slot(o);
  s.calls.fetch_add(1, std::memory_order_relaxed);
  s.total_ns.fetch_add(ns, std::memory_order_relaxed);
  s.hist[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = s.max_ns.load(std::memory_order_relaxed);
  while (ns > seen &&
         !s.max_ns.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

double op_snapshot::quantile_ns(double q) const noexcept {
  if (calls == 0) { return 0; }
  const double target = q * static_cast<double>(calls);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < latency_buckets; ++b) {
    seen += hist[b];
    if (static_cast<double>(seen) >= target) {
      return b == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << b);
    }
  }
  return static_cast<double>(std::uint64_t{1} << (latency_buckets - 1));
}

std::vector<op_snapshot> snapshot() {
  std::vector<op_snapshot> out;
  for (std::size_t i = 0; i < op_count; ++i) {
    const op o = static_cast<op>(i);
    const op_slot& s = slot(o);
    op_snapshot snap;
    snap.o = o;
    snap.calls = s.calls.load(std::memory_order_relaxed);
    if (snap.calls == 0) { continue; }
    snap.total_ns = s.total_ns.load(std::memory_order_relaxed);
    snap.max_ns = s.max_ns.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < latency_buckets; ++b) {
      snap.hist[b] = s.hist[b].load(std::memory_order_relaxed);
    }
    out.push_back(snap);
  }
  return out;
}

void reset() {
  for (std::size_t i = 0; i < op_count; ++i) {
    op_slot& s = slot(static_cast<op>(i));
    s.calls.store(0, std::memory_order_relaxed);
    s.total_ns.store(0, std::memory_order_relaxed);
    s.max_ns.store(0, std::memory_order_relaxed);
    for (auto& h : s.hist) { h.store(0, std::memory_order_relaxed); }
  }
}

void write_json(std::ostream& os) {
  // Same provenance block as the canonical bench-result documents, so a
  // stats dump can always be traced back to the run that produced it.
  std::string envelope;
  bench::results::append_envelope_json(bench::results::current_envelope("stats"),
                                       envelope);
  os << "{\"envelope\":" << envelope << ",\"ops\":[";
  bool first = true;
  for (const op_snapshot& s : snapshot()) {
    if (!first) { os << ','; }
    first = false;
    write_op_json(os, s);
  }
  // Arena admission/degradation counters and per-caller latency quantiles —
  // the multi-tenant side of the same observability story (DESIGN.md §17).
  os << "],\"arenas\":[";
  first = true;
  for (const sched::arena_snapshot& s : sched::arena::snapshot_all()) {
    if (!first) { os << ','; }
    first = false;
    write_arena_json(os, s);
  }
  os << "]}\n";
}

void write_prometheus(std::ostream& os) {
  const auto snaps = snapshot();
  os << "# TYPE pstlb_calls_total counter\n";
  for (const op_snapshot& s : snaps) {
    os << "pstlb_calls_total{op=\"" << op_name(s.o) << "\"} " << s.calls << '\n';
  }
  os << "# TYPE pstlb_latency_ns summary\n";
  for (const op_snapshot& s : snaps) {
    const std::string_view name = op_name(s.o);
    os << "pstlb_latency_ns{op=\"" << name << "\",quantile=\"0.5\"} "
       << s.p50_ns() << '\n';
    os << "pstlb_latency_ns{op=\"" << name << "\",quantile=\"0.95\"} "
       << s.p95_ns() << '\n';
    os << "pstlb_latency_ns{op=\"" << name << "\",quantile=\"0.99\"} "
       << s.p99_ns() << '\n';
    os << "pstlb_latency_ns_sum{op=\"" << name << "\"} " << s.total_ns << '\n';
    os << "pstlb_latency_ns_count{op=\"" << name << "\"} " << s.calls << '\n';
    os << "pstlb_latency_ns_max{op=\"" << name << "\"} " << s.max_ns << '\n';
  }
  const auto arenas = sched::arena::snapshot_all();
  if (!arenas.empty()) {
    os << "# TYPE pstlb_arena_admitted_total counter\n";
    for (const sched::arena_snapshot& a : arenas) {
      os << "pstlb_arena_admitted_total{arena=\"" << prometheus_label(a.name) << "\"} "
         << a.admitted << '\n';
    }
    os << "# TYPE pstlb_arena_shed_total counter\n";
    for (const sched::arena_snapshot& a : arenas) {
      const std::string name = prometheus_label(a.name);
      os << "pstlb_arena_shed_total{arena=\"" << name
         << "\",reason=\"spawnfail\"} " << a.shed_spawnfail << '\n';
      os << "pstlb_arena_shed_total{arena=\"" << name
         << "\",reason=\"oom\"} " << a.shed_oom << '\n';
    }
    os << "# TYPE pstlb_arena_call_latency_ns summary\n";
    for (const sched::arena_snapshot& a : arenas) {
      const std::string name = prometheus_label(a.name);
      os << "pstlb_arena_call_latency_ns{arena=\"" << name
         << "\",quantile=\"0.5\"} " << a.p50_ns() << '\n';
      os << "pstlb_arena_call_latency_ns{arena=\"" << name
         << "\",quantile=\"0.95\"} " << a.p95_ns() << '\n';
      os << "pstlb_arena_call_latency_ns{arena=\"" << name
         << "\",quantile=\"0.99\"} " << a.p99_ns() << '\n';
      os << "pstlb_arena_call_latency_ns_count{arena=\"" << name << "\"} "
         << a.calls << '\n';
    }
  }
}

bool dump_to_env_file() {
  const std::string path = env::string_or("PSTLB_STATS_FILE", "");
  if (path.empty()) { return false; }
  std::ofstream os(path);
  if (!os) { return false; }
  // File extension selects the format: ".prom" → Prometheus exposition
  // (scrapable via node_exporter's textfile collector), anything else JSON.
  const bool prom = path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  if (prom) {
    write_prometheus(os);
  } else {
    write_json(os);
  }
  return os.good();
}

void signal_safe_dump(int fd) noexcept {
  // One line per live op: "pstlb_stats op=<name> calls=<n> total_ns=<n>
  // max_ns=<n>\n". Integers only — no iostreams, no locale, no allocation.
  char buf[256];
  for (std::size_t i = 0; i < op_count; ++i) {
    const op o = static_cast<op>(i);
    const op_slot& s = slot(o);
    const std::uint64_t calls = s.calls.load(std::memory_order_relaxed);
    if (calls == 0) { continue; }
    std::size_t len = 0;
    auto append = [&](std::string_view text) {
      for (const char c : text) {
        if (len < sizeof(buf)) { buf[len++] = c; }
      }
    };
    auto append_u64 = [&](std::uint64_t v) {
      char digits[21];
      const std::size_t n = format_u64(v, digits);
      append(std::string_view(digits, n));
    };
    append("pstlb_stats op=");
    append(op_name(o));
    append(" calls=");
    append_u64(calls);
    append(" total_ns=");
    append_u64(s.total_ns.load(std::memory_order_relaxed));
    append(" max_ns=");
    append_u64(s.max_ns.load(std::memory_order_relaxed));
    append("\n");
    write_all(fd, buf, len);
  }
}

}  // namespace pstlb::stats

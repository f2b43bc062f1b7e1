#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

namespace perfbench {

namespace {

/// Every value the generator writes lies in [0, 2^20); the find target is
/// the one element outside it, so its first (and only) position is known.
constexpr double kFindTarget = 0x1p21;

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

std::uint64_t multiset_hash(const double* p, index_t n) {
  std::uint64_t h = 0;
  for (index_t i = 0; i < n; ++i) { h += mix64(bits_of(p[i])); }
  return h;
}

std::uint64_t sequence_hash(const double* p, index_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (index_t i = 0; i < n; ++i) { h = (h ^ bits_of(p[i])) * 0x100000001b3ull; }
  return h;
}

/// Reassociation bound for a sum of n non-negative terms totalling `total`:
/// the licence par_unseq gives a floating-point reduction.
bool sum_close(double got, double want, index_t n) {
  return got == want ||
         std::fabs(got - want) <= static_cast<double>(n) * 0x1p-53 * std::fabs(want);
}

/// Checking and copying large arrays, and the host copy-bandwidth probe, run
/// on plain std::threads, one contiguous slice each, so untimed checks do not
/// dominate the bulk workload.
constexpr int kSlices = 4;
constexpr index_t kSliceMin = index_t{1} << 20;

template <class F>
void for_slices(index_t n, F&& fn) {
  const int slices = n >= kSliceMin ? kSlices : 1;
  const index_t width = pstlb::ceil_div(n, slices);
  auto run = [&](int t) { fn(t, std::min(n, t * width), std::min(n, (t + 1) * width)); };
  if (slices == 1) {
    run(0);
    return;
  }
  std::vector<std::thread> team;
  for (int t = 1; t < slices; ++t) { team.emplace_back(run, t); }
  run(0);
  for (auto& th : team) { th.join(); }
}

template <class Check>
bool all_slices(index_t n, Check&& check) {
  bool ok[kSlices] = {true, true, true, true};
  for_slices(n, [&](int t, index_t b, index_t e) { ok[t] = check(t, b, e); });
  return std::all_of(ok, ok + kSlices, [](bool x) { return x; });
}

void parallel_copy(const double* src, double* dst, index_t n) {
  for_slices(n, [&](int, index_t b, index_t e) { std::copy(src + b, src + e, dst + b); });
}

}  // namespace

const char* kernel_name(kernel k) {
  static const char* const names[kernel_count] = {
      "reduce",   "transform", "find",           "count",
      "min_element", "for_each", "inclusive_scan", "sort"};
  return names[static_cast<int>(k)];
}

const char* policy_name(policy p) {
  static const char* const names[policy_count] = {"par", "par_unseq", "fork_join",
                                                  "task", "omp_dynamic"};
  return names[static_cast<int>(p)];
}

void make_slot(slot& s, index_t n, index_t sort_n, std::uint64_t seed,
               std::uint64_t stream, std::uint64_t& hash) {
  const std::uint64_t base = mix64(seed * 0x9e3779b97f4a7c15ull ^ mix64(stream));
  rng r(base);
  s.n = n;
  s.sort_n = sort_n;
  s.values.assign(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i) {
    s.values[static_cast<std::size_t>(i)] =
        static_cast<double>(mix64(base + static_cast<std::uint64_t>(i)) >> 44);
  }
  // The find target sits in the third quarter, where parallel and sequential
  // find both have to scan most of the input.
  const index_t quarter = std::max<index_t>(1, n / 16);
  const index_t find_pos =
      n / 2 + n / 8 + static_cast<index_t>(r.below(static_cast<std::uint64_t>(quarter)));
  s.values[static_cast<std::size_t>(find_pos)] = kFindTarget;
  s.find_target = kFindTarget;
  index_t pick = static_cast<index_t>(r.below(static_cast<std::uint64_t>(n)));
  if (pick == find_pos) { pick = (pick + 1) % n; }
  s.count_target = s.values[static_cast<std::size_t>(pick)];

  s.sort_src.assign(static_cast<std::size_t>(sort_n), 0.0);
  const std::uint64_t sort_base = mix64(base ^ 0x5bd1e995ull);
  for (index_t i = 0; i < sort_n; ++i) {
    s.sort_src[static_cast<std::size_t>(i)] =
        static_cast<double>(mix64(sort_base + static_cast<std::uint64_t>(i)) >> 24);
  }
  s.out.assign(static_cast<std::size_t>(std::max(n, sort_n)), 0.0);

  const double* v = s.values.data();
  s.sum_ref = std::reduce(v, v + n, 0.0);
  s.find_ref = std::find(v, v + n, s.find_target) - v;
  s.count_ref = std::count(v, v + n, s.count_target);
  s.min_ref = std::min_element(v, v + n) - v;
  s.sort_hash = multiset_hash(s.sort_src.data(), sort_n);
  hash = mix64(hash ^ sequence_hash(v, n));
  hash = mix64(hash ^ sequence_hash(s.sort_src.data(), sort_n));
}

void prepare(kernel k, slot& s) {
  double* o = s.out.data();
  switch (k) {
    case kernel::sort: parallel_copy(s.sort_src.data(), o, s.sort_n); break;
    case kernel::for_each: parallel_copy(s.values.data(), o, s.n); break;
    case kernel::transform:
    case kernel::inclusive_scan:
      for_slices(s.n, [&](int, index_t b, index_t e) {
        std::fill(o + b, o + e, std::numeric_limits<double>::quiet_NaN());
      });
      break;
    default: break;
  }
}

call_result call_std(kernel k, slot& s) {
  call_result r;
  double* v = s.values.data();
  double* o = s.out.data();
  const index_t n = s.n;
  switch (k) {
    case kernel::reduce: r.scalar = std::reduce(v, v + n, 0.0); break;
    case kernel::transform: std::transform(v, v + n, v, o, std::plus<double>{}); break;
    case kernel::find: r.index = std::find(v, v + n, s.find_target) - v; break;
    case kernel::count: r.index = std::count(v, v + n, s.count_target); break;
    case kernel::min_element: r.index = std::min_element(v, v + n) - v; break;
    case kernel::for_each:
      std::for_each(o, o + n, [](double& x) { x = for_each_toggle - x; });
      break;
    case kernel::inclusive_scan: std::inclusive_scan(v, v + n, o); break;
    case kernel::sort: std::sort(o, o + s.sort_n); break;
  }
  return r;
}

bool verify(kernel k, const slot& s, const call_result& r) {
  const double* v = s.values.data();
  const double* o = s.out.data();
  const index_t n = s.n;
  switch (k) {
    case kernel::reduce: return sum_close(r.scalar, s.sum_ref, n);
    case kernel::transform:
      return all_slices(n, [&](int, index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) {
          if (o[i] != v[i] + v[i]) { return false; }
        }
        return true;
      });
    case kernel::find: return r.index == s.find_ref;
    case kernel::count: return r.index == s.count_ref;
    case kernel::min_element: return r.index == s.min_ref;
    case kernel::for_each:
      return all_slices(n, [&](int, index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) {
          if (o[i] != for_each_toggle - v[i]) { return false; }
        }
        return true;
      });
    case kernel::inclusive_scan: {
      // Each slice starts from the sum of the slices before it.
      double partial[kSlices] = {};
      for_slices(n, [&](int t, index_t b, index_t e) { partial[t] = std::reduce(v + b, v + e, 0.0); });
      std::exclusive_scan(partial, partial + kSlices, partial, 0.0);
      return all_slices(n, [&](int t, index_t b, index_t e) {
        double running = partial[t];
        for (index_t i = b; i < e; ++i) {
          running += v[i];
          if (!sum_close(o[i], running, i + 1)) { return false; }
        }
        return true;
      });
    }
    case kernel::sort:
      return std::is_sorted(o, o + s.sort_n) &&
             multiset_hash(o, s.sort_n) == s.sort_hash;
  }
  return false;
}

std::uint64_t result_signature(kernel k, const slot& s, const call_result& r) {
  std::uint64_t h = mix64(bits_of(r.scalar)) ^ mix64(static_cast<std::uint64_t>(r.index) + 1);
  switch (k) {
    case kernel::transform:
    case kernel::for_each:
    case kernel::inclusive_scan: h ^= sequence_hash(s.out.data(), s.n); break;
    case kernel::sort: h ^= sequence_hash(s.out.data(), s.sort_n); break;
    default: break;
  }
  return h;
}

// ---------------------------------------------------------------------------

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) { return 0; }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) { return 0; }
  double log_sum = 0;
  for (double x : v) { log_sum += std::log(x); }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double quiet_cut(const std::vector<double>& steal) { return quantile(steal, 0.25); }

double quiet_median(const std::vector<double>& values, const std::vector<double>& steal) {
  const double cut = quiet_cut(steal);
  std::vector<double> quiet;
  for (std::size_t i = 0; i < values.size() && i < steal.size(); ++i) {
    if (steal[i] <= cut) { quiet.push_back(values[i]); }
  }
  return median(std::move(quiet));
}

double tail_percentile(std::size_t count) {
  const double n = static_cast<double>(count);
  for (double q : {0.99, 0.95, 0.90}) {
    if (n * (1 - q) >= 10) { return q; }
  }
  if (count >= 20) { return std::floor((1 - 10 / n) * 100) / 100; }
  return 0.5;
}

// ---------------------------------------------------------------------------

unsigned host_nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

std::uint64_t host_llc_bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string text;
  if (!(in >> text) || text.empty()) { return 0; }
  std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  switch (text.back()) {
    case 'K': value <<= 10; break;
    case 'M': value <<= 20; break;
    case 'G': value <<= 30; break;
    default: break;
  }
  return value;
}

double host_loadavg() {
  double load[1] = {0};
  return getloadavg(load, 1) == 1 ? load[0] : 0;
}

std::pair<double, double> host_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  double field = 0;
  double total = 0;
  double steal = 0;
  in >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8 && (in >> field); ++i) {
    total += field;
    if (i == 7) { steal = field; }
  }
  return {steal, total};
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double noise_probe_ns() {
  std::uint64_t x = 0x243f6a8885a308d3ull;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < (1 << 21); ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    x ^= x >> 29;
  }
  const std::uint64_t t1 = now_ns();
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_xor(x, std::memory_order_relaxed);
  return static_cast<double>(t1 - t0);
}

double stream_copy_gib_s(std::size_t bytes, int reps) {
  std::unique_ptr<char[]> a(new char[bytes]);
  std::unique_ptr<char[]> b(new char[bytes]);
  const auto n = static_cast<index_t>(bytes);
  for_slices(n, [&](int, index_t b0, index_t e0) {
    std::memset(a.get() + b0, 1, static_cast<std::size_t>(e0 - b0));
    std::memset(b.get() + b0, 0, static_cast<std::size_t>(e0 - b0));
  });
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    for_slices(n, [&](int, index_t b0, index_t e0) {
      std::memcpy(b.get() + b0, a.get() + b0, static_cast<std::size_t>(e0 - b0));
    });
    seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return 2.0 * static_cast<double>(bytes) / median(seconds) / (1024.0 * 1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------

namespace spans {
namespace {

struct record {
  const char* name;
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t call;
  std::uint32_t id;
  std::uint32_t parent;
};

struct thread_buffer {
  unsigned tid = 0;
  std::vector<record> records;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};
std::mutex g_mutex;
std::vector<std::unique_ptr<thread_buffer>> g_buffers;  // guarded by g_mutex

thread_local thread_buffer* t_buffer = nullptr;
thread_local std::uint32_t t_current = 0;

thread_buffer& local_buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard lock(g_mutex);
    g_buffers.push_back(std::make_unique<thread_buffer>());
    g_buffers.back()->tid = static_cast<unsigned>(g_buffers.size());
    g_buffers.back()->records.reserve(1 << 16);
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

scope::scope(const char* name, std::uint64_t call) : name_(name), call_(call) {
  if (!enabled()) { return; }
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current;
  t_current = id_;
  start_ = now_ns();
}

scope::~scope() {
  if (id_ == 0) { return; }
  const std::uint64_t end = now_ns();
  t_current = parent_;
  local_buffer().records.push_back(record{name_, start_, end, call_, id_, parent_});
}

const char* intern(const std::string& name) {
  static std::set<std::string> names;  // guarded by g_mutex; nodes never move
  std::lock_guard lock(g_mutex);
  return names.insert(name).first->c_str();
}

std::size_t count() {
  std::lock_guard lock(g_mutex);
  std::size_t total = 0;
  for (const auto& b : g_buffers) { total += b->records.size(); }
  return total;
}

bool write_chrome(const std::string& path) {
  std::lock_guard lock(g_mutex);
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& b : g_buffers) {
    for (const record& r : b->records) { origin = std::min(origin, r.start); }
  }
  std::ofstream out(path);
  if (!out) { return false; }
  out << "{\"traceEvents\":[";
  bool first = true;
  char line[512];
  for (const auto& b : g_buffers) {
    for (const record& r : b->records) {
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                    "\"call\":%llu}}",
                    first ? "" : ",", r.name, b->tid,
                    static_cast<double>(r.start - origin) * 1e-3,
                    static_cast<double>(r.end - r.start) * 1e-3, r.id, r.parent,
                    static_cast<unsigned long long>(r.call));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace spans

}  // namespace perfbench

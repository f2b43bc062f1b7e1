// Shared pieces of the end-to-end benchmark: deterministic input generation,
// the kernel/policy vocabulary, result checking, statistics, host probes and
// the in-memory span recorder used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "pstlb/common.hpp"

namespace perfbench {

using pstlb::index_t;

// ---------------------------------------------------------------------------
// Clock and deterministic randomness

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64 finaliser: a counter-based generator, so element i of an input
/// depends only on (seed, stream, i) and inputs are byte-identical per seed.
inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct rng {
  std::uint64_t state;
  explicit rng(std::uint64_t seed) : state(mix64(seed)) {}
  std::uint64_t next() { return mix64(state += 0x632be59bd9b4e019ull); }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

// ---------------------------------------------------------------------------
// Kernels and policies

enum class kernel : int {
  reduce,
  transform,
  find,
  count,
  min_element,
  for_each,
  inclusive_scan,
  sort,
};
inline constexpr int kernel_count = 8;
const char* kernel_name(kernel k);

/// The public policy spellings the workloads call pstlb with. Every policy
/// keeps the defaults a user gets (seq_threshold, grain, skeleton choice).
enum class policy : int {
  par,          // pstlb::execution::par
  par_unseq,    // pstlb::execution::par_unseq
  fork_join,    // pstlb::exec::fork_join_policy{4}
  task,         // pstlb::exec::task_policy{4}
  omp_dynamic,  // pstlb::exec::omp_dynamic_policy{4}
};
inline constexpr int policy_count = 5;
inline constexpr unsigned policy_threads = 4;
const char* policy_name(policy p);

/// The for_each body maps x to for_each_toggle - x (exact on the inputs).
inline constexpr double for_each_toggle = 0x1p20 - 1;

/// One input of n elements plus its reference results, all computed with the
/// sequential std algorithms before any timing starts. Element values are
/// small integers stored as doubles, so every sum the kernels form is exact
/// under any association.
struct slot {
  index_t n = 0;
  index_t sort_n = 0;
  std::vector<double> values;    // read-only input of every kernel but sort
  std::vector<double> out;       // output buffer (transform, scan, for_each, sort)
  std::vector<double> sort_src;  // sort input; copied into `out` before a sort
  double find_target = 0;
  double count_target = 0;
  double sum_ref = 0;
  index_t find_ref = 0;
  index_t count_ref = 0;
  index_t min_ref = 0;
  std::uint64_t sort_hash = 0;  // order-independent hash of sort_src
};

/// Builds a slot from (seed, stream); folds every input byte into `hash`.
void make_slot(slot& s, index_t n, index_t sort_n, std::uint64_t seed,
               std::uint64_t stream, std::uint64_t& hash);

/// What a kernel call returned: a scalar (reduce), an index (find, count,
/// min_element) or nothing beyond the output buffer. The defaults match no
/// reference, so a call that returns nothing fails the check.
struct call_result {
  double scalar = std::numeric_limits<double>::quiet_NaN();
  index_t index = -1;
};

/// Untimed preparation before a call: sort and for_each work on a fresh copy
/// in `out`; transform and inclusive_scan find `out` filled with NaN, so an
/// element the call did not write fails the check.
void prepare(kernel k, slot& s);
/// The libstdc++ sequential reference call.
call_result call_std(kernel k, slot& s);
/// The pstlb call under policy `p` (defined per policy type in calls_*.cpp).
call_result call_pstlb(kernel k, policy p, slot& s);
/// Checks a call's output against the std reference results of `s`.
bool verify(kernel k, const slot& s, const call_result& r);
/// Hash of everything a call produced, for telling kernel names apart.
std::uint64_t result_signature(kernel k, const slot& s, const call_result& r);

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v);
/// Linear-interpolated quantile of an unsorted sample.
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);
/// Hypervisor steal (the share of CPU time given to other guests) stalls a
/// pool's participants and every caller queued behind them, so a period
/// with a few percent of steal reads far slower. Per-period figures are
/// therefore taken over the quiet periods: those whose steal share is at
/// most the lower quartile of all periods' shares. That is at least a
/// quarter of them, and all of them on a host that takes none.
double quiet_cut(const std::vector<double>& steal);
/// The median of values[i] over the entries with steal[i] <= quiet_cut(steal).
double quiet_median(const std::vector<double>& values, const std::vector<double>& steal);

/// The tail percentile reported for a sample of `count` calls: the highest
/// of p99, p95, p90 leaving at least 10 samples beyond it, else the highest
/// percentile that does (p50 when fewer than 20 samples exist).
double tail_percentile(std::size_t count);

// ---------------------------------------------------------------------------
// Host facts and probes

unsigned host_nproc();
std::uint64_t host_llc_bytes();  // sysfs cache/index3 of cpu0, else 0
double host_loadavg();           // 1-minute load average
/// Cumulative (steal, total) jiffies of all cpus from /proc/stat: time a
/// hypervisor gave this host's vCPUs to someone else.
std::pair<double, double> host_steal_jiffies();
double peak_rss_mib();
/// Timed fixed single-thread loop, in ns (the noise-floor probe).
double noise_probe_ns();
/// 4-thread std::thread copy bandwidth over `bytes` per array, GiB/s.
double stream_copy_gib_s(std::size_t bytes, int reps);

// ---------------------------------------------------------------------------
// Span recorder (traced runs only). Spans live in per-thread memory and are
// written out once, at exit, as a Chrome trace.

namespace spans {
void enable(bool on);
bool enabled();
/// Records [construction, destruction) under `name`. `call` ties the spans
/// of one logical call together; the parent is the enclosing scope on the
/// same thread.
class scope {
 public:
  explicit scope(const char* name, std::uint64_t call = 0);
  ~scope();
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  const char* name_;
  std::uint64_t call_;
  std::uint64_t start_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
};
/// A copy of `name` that lives until exit, for span names built at run time
/// (scope keeps only the pointer).
const char* intern(const std::string& name);
std::size_t count();
/// Writes every recorded span; call after all recording threads joined.
bool write_chrome(const std::string& path);
}  // namespace spans

}  // namespace perfbench

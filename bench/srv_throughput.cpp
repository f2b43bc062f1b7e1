// Multi-tenant service throughput: many concurrent request threads bound
// to one capped arena (DESIGN.md §17).
//
// The paper's figures measure one call owning the machine; this bench
// measures the opposite regime a server lives in: C closed-loop caller
// threads, each issuing a Zipf-sized mix of requests (for_each / reduce /
// inclusive_scan / sort, rotating backends at width 8) through one arena.
// Every call is admitted on the process-wide core ledger; the arena's cap
// is a per-request ceiling on the width a call asks that ledger for.
// Per-request latency is recorded on the calling thread, so the reported
// p50/p95/p99 include admission queueing — the wait the ledger imposes
// instead of oversubscribing. The sweep doubles C from 1 to 128 and reports
// throughput plus tail latency per caller count, and the process-wide shed
// counter (CI greps the final line: 0 on a clean run, > 0 under
// PSTLB_FAULT=spawnfail).
//
// Usage: srv_throughput [max_callers] [ops_per_caller] [cap]
//   defaults: 128 callers, 32 ops each, cap (per-request width ceiling)
//   sched::default_width() (the hardware concurrency unless
//   PSTL_NUM_THREADS/OMP_NUM_THREADS ask for more). Determinism:
//   splitmix64 streams seeded per (caller, op); no wall-clock dependence in
//   the mix.
//
// Arrival model: closed loop. Each caller issues its next request the moment
// the previous one returns, so a saturated ledger slows the callers down
// instead of building a backlog: latencies include the admission wait but
// not the delay an open-loop client would see (coordinated omission).
//
// PSTLB_BENCH_JSON exports the canonical BENCH_srv_throughput.json with
// kernels srv_mix_p50/p95/p99 (seconds) and srv_mix_throughput (ops/s),
// threads = caller count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include "bench_core/result_store.hpp"
#include "bench_core/wrapper.hpp"
#include "pstlb/pstlb.hpp"
#include "sched/arena.hpp"
#include "sched/thread_pool.hpp"

namespace pstlb::bench {
namespace {

using clock_type = std::chrono::steady_clock;

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Zipf(s=1) over the request size classes: class k is ~1/(k+1) as likely
/// as class 0, so most requests are small with a heavy large-request tail —
/// the standard service-workload shape.
constexpr index_t kSizeClasses[] = {1 << 10, 1 << 12, 1 << 14, 1 << 16,
                                    1 << 18};
constexpr std::size_t kNumClasses = sizeof(kSizeClasses) / sizeof(index_t);

index_t zipf_size(std::uint64_t draw) {
  double weights[kNumClasses];
  double total = 0.0;
  for (std::size_t k = 0; k < kNumClasses; ++k) {
    weights[k] = 1.0 / static_cast<double>(k + 1);
    total += weights[k];
  }
  double point = total * (static_cast<double>(draw >> 11) * 0x1.0p-53);
  for (std::size_t k = 0; k < kNumClasses; ++k) {
    point -= weights[k];
    if (point <= 0.0) { return kSizeClasses[k]; }
  }
  return kSizeClasses[kNumClasses - 1];
}

/// One request: op and size drawn from the caller's deterministic stream.
/// Returns a value derived from the result so nothing is optimized away.
long long serve_one(const exec::policy& policy, std::uint64_t& rng,
                    std::vector<long long>& scratch) {
  const std::uint64_t draw = splitmix64(rng);
  const index_t n = zipf_size(draw);
  scratch.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    scratch[static_cast<std::size_t>(i)] =
        static_cast<long long>((static_cast<std::uint64_t>(i) * 131 + draw) % 9973);
  }
  switch (draw % 4) {
    case 0: {
      pstlb::for_each(policy, scratch.begin(), scratch.end(),
                      [](long long& x) { x = x * 3 + 1; });
      return scratch.back();
    }
    case 1:
      return pstlb::reduce(policy, scratch.begin(), scratch.end(), 0LL);
    case 2: {
      pstlb::inclusive_scan(policy, scratch.begin(), scratch.end(),
                            scratch.begin());
      return scratch.back();
    }
    default: {
      pstlb::sort(policy, scratch.begin(), scratch.end());
      return scratch.front() + scratch.back();
    }
  }
}

struct sweep_point {
  unsigned callers = 0;
  double throughput_ops = 0.0;  // completed requests per second
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  std::uint64_t sheds = 0;      // arena sheds during this point
};

double quantile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) { return 0.0; }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

sweep_point run_point(unsigned callers, int ops_per_caller, unsigned cap) {
  sched::arena a({"srv", cap});

  std::vector<std::vector<double>> latencies(callers);
  std::atomic<long long> sink{0};
  const auto wall0 = clock_type::now();
  std::vector<std::thread> users;
  users.reserve(callers);
  for (unsigned u = 0; u < callers; ++u) {
    users.emplace_back([&, u] {
      sched::arena::scoped_bind bind(&a);
      std::uint64_t rng = 0x5eed0000ull + u;
      std::vector<long long> scratch;
      auto& mine = latencies[u];
      mine.reserve(static_cast<std::size_t>(ops_per_caller));
      long long local = 0;
      for (int op = 0; op < ops_per_caller; ++op) {
        const auto t0 = clock_type::now();
        static constexpr backends::backend_id rotation[] = {
            backends::backend_id::steal, backends::backend_id::fork_join,
            backends::backend_id::task_futures, backends::backend_id::omp_dynamic};
        local += serve_one(exec::make_policy(rotation[u % 4], 8), rng, scratch);
        mine.push_back(std::chrono::duration<double>(clock_type::now() - t0)
                           .count());
      }
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& user : users) { user.join(); }
  const double wall =
      std::chrono::duration<double>(clock_type::now() - wall0).count();

  std::vector<double> all;
  for (const auto& per : latencies) {
    all.insert(all.end(), per.begin(), per.end());
  }
  std::sort(all.begin(), all.end());

  sweep_point point;
  point.callers = callers;
  point.throughput_ops =
      wall > 0 ? static_cast<double>(all.size()) / wall : 0.0;
  point.p50_s = quantile(all, 0.50);
  point.p95_s = quantile(all, 0.95);
  point.p99_s = quantile(all, 0.99);
  point.sheds = a.snapshot().shed_total();

  const auto s = a.snapshot();
  if (s.admitted != s.completed) {
    std::fprintf(stderr,
                 "srv_throughput: arena leak at %u callers: admitted=%llu "
                 "completed=%llu\n",
                 callers, static_cast<unsigned long long>(s.admitted),
                 static_cast<unsigned long long>(s.completed));
    std::exit(1);
  }
  return point;
}

}  // namespace
}  // namespace pstlb::bench

int main(int argc, char** argv) {
  using namespace pstlb::bench;
  const unsigned max_callers =
      argc > 1 ? static_cast<unsigned>(std::strtoul(argv[1], nullptr, 10)) : 128;
  const int ops_per_caller =
      argc > 2 ? static_cast<int>(std::strtol(argv[2], nullptr, 10)) : 32;
  const unsigned cap = argc > 3
                           ? static_cast<unsigned>(std::strtoul(argv[3], nullptr, 10))
                           : pstlb::sched::default_width();
  if (max_callers == 0 || ops_per_caller <= 0 || cap == 0) {
    std::fprintf(stderr,
                 "usage: srv_throughput [max_callers] [ops_per_caller] [cap]\n");
    return 2;
  }

  std::printf(
      "srv_throughput: closed-loop Zipf request mix, arena cap %u, %d ops "
      "per caller\n",
      cap, ops_per_caller);
  std::printf("%8s %14s %12s %12s %12s %8s\n", "callers", "ops/s", "p50_ms",
              "p95_ms", "p99_ms", "sheds");

  for (unsigned callers = 1; callers <= max_callers; callers *= 2) {
    const sweep_point point = run_point(callers, ops_per_caller, cap);
    std::printf("%8u %14.1f %12.3f %12.3f %12.3f %8llu\n", point.callers,
                point.throughput_ops, point.p50_s * 1e3, point.p95_s * 1e3,
                point.p99_s * 1e3,
                static_cast<unsigned long long>(point.sheds));
    record_native_result("srv_mix_p50", "mixed",
                         static_cast<double>(callers), callers,
                         {point.p50_s});
    record_native_result("srv_mix_p95", "mixed",
                         static_cast<double>(callers), callers,
                         {point.p95_s});
    record_native_result("srv_mix_p99", "mixed",
                         static_cast<double>(callers), callers,
                         {point.p99_s});
    record_native_result("srv_mix_throughput", "mixed",
                         static_cast<double>(callers), callers,
                         {point.throughput_ops}, "ops/s");
  }

  // CI greps this: under fault injection the sheds must be > 0 while the
  // exit code stays 0 (degradation, not failure).
  std::printf("pstlb: srv_throughput total sheds=%llu\n",
              static_cast<unsigned long long>(
                  pstlb::sched::arena::global_shed_count()));

  pstlb::bench::results::result_store::instance().set_suite("srv_throughput");
  pstlb::bench::results::result_store::instance().flush_to_env();
  return 0;
}

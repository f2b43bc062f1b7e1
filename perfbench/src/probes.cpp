#include "probes.hpp"

#include <atomic>
#include <limits>
#include <thread>

#include "calls_impl.hpp"
#include "counters/counters.hpp"
#include "numa/first_touch_allocator.hpp"
#include "pstlb/detail/simd/isa.hpp"
#include "pstlb/detail/simd/kernels.hpp"
#include "pstlb/detail/sort_stats.hpp"
#include "sched/arena.hpp"
#include "sched/steal_pool.hpp"
#include "sched/task_queue_pool.hpp"
#include "sched/thread_pool.hpp"
#include "trace/stats_registry.hpp"

namespace perfbench {

namespace {

namespace backends = pstlb::backends;
namespace exec = pstlb::exec;
namespace sched = pstlb::sched;
namespace simd = pstlb::simd;

std::atomic<double> g_sink{0};

/// Appends, per batch, the per-operation time of `batch` back-to-back calls
/// of `f`. One span covers each batch: a span per operation would cost more
/// than the nanosecond-scale operations it wraps.
template <class F>
void time_batches(const char* span, int batch, int batches, const F& f,
                  std::vector<double>& out) {
  for (int b = 0; b < batches; ++b) {
    spans::scope sp(span, static_cast<std::uint64_t>(b));
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < batch; ++i) { f(); }
    out.push_back(static_cast<double>(now_ns() - t0) / batch);
  }
}

template <class F>
double per_op_ns(const char* span, int batch, int batches, const F& f) {
  std::vector<double> samples;
  time_batches(span, batch, batches, f, samples);
  return median(std::move(samples));
}

/// The same from four threads at once: median per-operation time as each
/// submitter sees it.
template <class F>
double per_op_ns_x4(const char* span, int batch, int batches, const F& f) {
  std::vector<std::vector<double>> per(4);
  std::vector<std::thread> team;
  for (auto& samples : per) {
    team.emplace_back([&] { time_batches(span, batch, batches, f, samples); });
  }
  for (auto& th : team) { th.join(); }
  std::vector<double> all;
  for (auto& v : per) { all.insert(all.end(), v.begin(), v.end()); }
  return median(std::move(all));
}

void add(std::vector<layer_metric>& out, std::string name, double value, std::string unit,
         std::string note = "") {
  out.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

// ---------------------------------------------------------------------------

void probe_seq_call(std::vector<layer_metric>& out) {
  slot s;
  std::uint64_t ignored = 0;
  make_slot(s, 1 << 10, 1 << 10, 1, 900, ignored);
  const double* v = s.values.data();
  const index_t n = s.n;
  std::vector<double> with_pstlb;
  std::vector<double> with_std;
  constexpr int batch = 64;
  for (int b = 0; b < 400; ++b) {
    double acc = 0;
    {
      spans::scope sp("probe.pstlb.seq_reduce", static_cast<std::uint64_t>(b));
      const std::uint64_t t0 = now_ns();
      for (int i = 0; i < batch; ++i) { acc += pstlb::reduce(pstlb::execution::seq, v, v + n, 0.0); }
      with_pstlb.push_back(static_cast<double>(now_ns() - t0) / batch);
    }
    const std::uint64_t t1 = now_ns();
    for (int i = 0; i < batch; ++i) { acc += std::reduce(v, v + n, 0.0); }
    with_std.push_back(static_cast<double>(now_ns() - t1) / batch);
    g_sink.store(acc, std::memory_order_relaxed);
  }
  const double pstlb_ns = median(with_pstlb);
  const double std_ns = median(with_std);
  add(out, "pstlb.seq_call_ns", pstlb_ns, "ns",
      "pstlb::reduce(seq) at 2^10; std::reduce takes " + std::to_string(std_ns) + " ns");
  add(out, "pstlb.seq_vs_std", pstlb_ns / std_ns, "x", "pstlb::reduce(seq) / std::reduce at 2^10");
}

/// Strong scaling of par, scan and sort traffic, and bandwidth use of the
/// bulk kernels, on one 2^24-element input (sort 2^22).
void probe_bulk(std::vector<layer_metric>& out, unsigned long long& failures) {
  constexpr index_t n = index_t{1} << 24;
  slot s;
  std::uint64_t ignored = 0;
  make_slot(s, n, index_t{1} << 22, 2, 901, ignored);

  double stream = 0;
  {
    spans::scope sp("probe.host.stream");
    stream = stream_copy_gib_s(static_cast<std::size_t>(n) * sizeof(double), 5);
  }
  add(out, "host.stream_gib_s", stream, "GiB/s", "4-thread std::thread copy, read+write");

  auto timed = [&](kernel k, unsigned threads, const char* span) {
    std::vector<double> t;
    for (int r = 0; r < 3; ++r) {
      prepare(k, s);
      spans::scope sp(span, static_cast<std::uint64_t>(r));
      const std::uint64_t t0 = now_ns();
      const call_result res =
          threads == 1 ? call_steal(k, s, 1) : call_pstlb(k, policy::par, s);
      t.push_back(static_cast<double>(now_ns() - t0));
      if (!verify(k, s, res)) { ++failures; }
    }
    return median(std::move(t));
  };

  double scan_bytes = 0;
  {
    spans::scope sp("probe.scan.traffic");
    pstlb::counters::region reg("perfbench.scan");
    call_pstlb(kernel::inclusive_scan, policy::par, s);
    scan_bytes = reg.stop().bytes_total() / static_cast<double>(n);
  }
  add(out, "scan.bytes_per_elem", scan_bytes, "B", "computed by the scan skeleton, par, 2^24");

  double sort_bytes = 0;
  {
    spans::scope sp("probe.sort.traffic");
    prepare(kernel::sort, s);
    call_pstlb(kernel::sort, policy::par, s);
    const auto& st = pstlb::detail::last_sort_traffic();
    add(out, "sort.passes", st.read_passes(), "passes",
        std::string("computed read passes, par, 2^22, ") + st.algorithm);
    sort_bytes = st.total_read() + st.total_written();
    add(out, "sort.bytes_per_elem", sort_bytes / static_cast<double>(s.sort_n), "B",
        "computed read+write traffic");
  }

  const double gib = 1024.0 * 1024.0 * 1024.0;
  std::vector<double> efficiencies;
  struct bulk_kernel {
    kernel k;
    double bytes;
  };
  const double nd = static_cast<double>(n);
  for (const bulk_kernel& b : {bulk_kernel{kernel::reduce, 8 * nd},
                               bulk_kernel{kernel::transform, 16 * nd},
                               bulk_kernel{kernel::inclusive_scan, scan_bytes * nd},
                               bulk_kernel{kernel::sort, sort_bytes}}) {
    const double t1 = timed(b.k, 1, "probe.pstlb.steal_1t");
    const double t4 = timed(b.k, policy_threads, "probe.pstlb.par_4t");
    efficiencies.push_back(t1 / (policy_threads * t4));
    add(out, std::string("bulk.") + kernel_name(b.k) + ".bw_frac",
        b.bytes / (t4 * 1e-9) / (stream * gib), "fraction",
        "computed bytes / par time / host.stream_gib_s");
  }
  add(out, "pstlb.strong_eff_4t", geomean(efficiencies), "fraction",
      "T(1 thread) / (4 x T(par)), geomean of reduce, transform, scan, sort");
}

void probe_arena(std::vector<layer_metric>& out) {
  sched::arena::config cfg;
  cfg.name = "perfbench.probe";
  cfg.cap = policy_threads;
  sched::arena a(std::move(cfg));
  add(out, "arena.admit_ns", per_op_ns("probe.arena.admit", 256, 200, [&] {
        const sched::arena::ticket t = a.admit(policy_threads);
        g_sink.store(t.granted(), std::memory_order_relaxed);
      }),
      "ns", "uncontended admit(4) + release, private strict arena");
}

void probe_pools(std::vector<layer_metric>& out) {
  auto& fork_pool = sched::thread_pool::global();
  fork_pool.ensure(policy_threads);
  const sched::thread_pool::region_fn empty_region = [](unsigned, unsigned) {};
  sched::loop_context ctx;
  ctx.n = policy_threads;
  ctx.grain = 1;
  ctx.run = [](void*, index_t, index_t, unsigned) {};
  ctx.name = "probe";
  auto& steal = sched::steal_pool::global();
  auto& tasks = sched::task_queue_pool::global();
  tasks.ensure(policy_threads);

  const auto region = [&] { fork_pool.run(policy_threads, empty_region); };
  const auto steal_region = [&] { steal.run(policy_threads, ctx); };
  const auto task_region = [&] { tasks.run(policy_threads, ctx); };
  add(out, "pool.thread_pool.region_ns", per_op_ns("probe.pool.thread_pool", 16, 200, region),
      "ns", "empty 4-participant region, one caller");
  add(out, "pool.steal_pool.region_ns", per_op_ns("probe.pool.steal_pool", 16, 200, steal_region),
      "ns");
  add(out, "pool.task_queue_pool.region_ns",
      per_op_ns("probe.pool.task_queue_pool", 16, 200, task_region), "ns");
  add(out, "pool.thread_pool.region_ns_x4",
      per_op_ns_x4("probe.pool.thread_pool.x4", 16, 50, region), "ns",
      "same region, 4 concurrent submitters");
  add(out, "pool.steal_pool.region_ns_x4",
      per_op_ns_x4("probe.pool.steal_pool.x4", 16, 50, steal_region), "ns");
  add(out, "pool.task_queue_pool.region_ns_x4",
      per_op_ns_x4("probe.pool.task_queue_pool.x4", 16, 50, task_region), "ns");
}

template <class Backend>
void probe_backend(std::vector<layer_metric>& out, const char* name, const Backend& be) {
  const auto body = [](index_t, index_t, unsigned) {};
  const std::string prefix = std::string("backend.") + name;
  const double call = per_op_ns(spans::intern("probe." + prefix + ".call"), 16, 200,
                                [&] { backends::parallel_for(be, 4, 1, body); });
  const double wide = per_op_ns(spans::intern("probe." + prefix + ".chunks"), 4, 100,
                                [&] { backends::parallel_for(be, 1024, 1, body); });
  add(out, prefix + ".call_ns", call, "ns", "parallel_for over 4 empty chunks");
  add(out, prefix + ".chunk_ns", (wide - call) / 1020, "ns",
      "(t(1024 chunks) - t(4 chunks)) / 1020");
}

void probe_backends(std::vector<layer_metric>& out) {
  probe_backend(out, "fork_join", backends::fork_join_backend(policy_threads));
  probe_backend(out, "omp_dynamic", backends::omp_dynamic_backend(policy_threads));
  probe_backend(out, "steal", backends::steal_backend(policy_threads));
  probe_backend(out, "task_futures", backends::task_futures_backend(policy_threads));
}

/// Eytzinger-layout splitter tree the classify kernels descend, padded with
/// +infinity (the layout the samplesort classify plan builds).
void fill_tree(std::vector<double>& tree, const std::vector<double>& sorted, std::size_t k,
               std::size_t& next) {
  if (k >= tree.size()) { return; }
  fill_tree(tree, sorted, 2 * k + 1, next);
  tree[k] = next < sorted.size() ? sorted[next++] : std::numeric_limits<double>::infinity();
  fill_tree(tree, sorted, 2 * k + 2, next);
}

void probe_simd(std::vector<layer_metric>& out, unsigned long long& failures) {
  const simd::isa level = simd::active();
  const std::string isa_name(simd::name(level));
  const auto* vec = simd::set_for<double>(level);
  const auto* ref = simd::set_for<double>(simd::isa::scalar);
  constexpr index_t n = index_t{1} << 14;
  std::vector<double> a(n), b(n), o1(n), o2(n);
  for (index_t i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<double>(mix64(1000 + static_cast<std::uint64_t>(i)) >> 44);
    b[static_cast<std::size_t>(i)] = static_cast<double>(mix64(5000 + static_cast<std::uint64_t>(i)) >> 44);
  }
  std::vector<double> splitters(255);
  for (std::size_t i = 0; i < splitters.size(); ++i) {
    splitters[i] = static_cast<double>(i) * 4096.0;
  }
  const int levels = 8;
  std::vector<double> tree((std::size_t{1} << levels) - 1);
  std::size_t next = 0;
  fill_tree(tree, splitters, 0, next);
  std::vector<std::uint32_t> c1(n), c2(n);
  const double absent = -1.0;
  const double present = a[n / 2];

  const char* names[] = {"reduce_sum", "find_eq", "count_eq", "add", "classify"};
  for (int which = 0; which < 5; ++which) {
    double speedup = 1;
    if (vec != nullptr && ref != nullptr && level != simd::isa::scalar) {
      auto run = [&](const pstlb::simd::kernel_set<double>* ks, std::vector<double>& o,
                     std::vector<std::uint32_t>& c) {
        double r = 0;
        switch (which) {
          case 0: r = ks->reduce_sum(a.data(), n); break;
          case 1: r = static_cast<double>(ks->find_eq(a.data(), n, absent)); break;
          case 2: r = static_cast<double>(ks->count_eq(a.data(), n, present)); break;
          case 3: ks->add(a.data(), b.data(), o.data(), n); break;
          default:
            ks->classify(a.data(), n, splitters.data(), static_cast<index_t>(splitters.size()),
                         tree.data(), levels, c.data());
            break;
        }
        return r;
      };
      const char* span = spans::intern(std::string("probe.simd.") + names[which]);
      const double t_ref = per_op_ns(span, 16, 60, [&] { g_sink.store(run(ref, o1, c1)); });
      const double t_vec = per_op_ns(span, 16, 60, [&] { g_sink.store(run(vec, o2, c2)); });
      if (run(ref, o1, c1) != run(vec, o2, c2) || o1 != o2 || c1 != c2) { ++failures; }
      speedup = t_ref / t_vec;
    }
    add(out, std::string("simd.") + names[which] + ".speedup_vs_scalar", speedup, "x",
        "active isa " + isa_name + " vs scalar table, 2^14 doubles");
  }
}

void probe_numa(std::vector<layer_metric>& out) {
  constexpr std::size_t n = std::size_t{1} << 26;
  pstlb::numa::first_touch_allocator<double, exec::omp_static_policy> alloc{
      exec::omp_static_policy{policy_threads}};
  std::vector<double> seconds;
  for (int r = 0; r < 3; ++r) {
    spans::scope sp("probe.numa.first_touch", static_cast<std::uint64_t>(r));
    const std::uint64_t t0 = now_ns();
    double* p = alloc.allocate(n);
    seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    alloc.deallocate(p, n);
  }
  add(out, "numa.first_touch_gib_s",
      static_cast<double>(n * sizeof(double)) / median(seconds) / (1024.0 * 1024.0 * 1024.0),
      "GiB/s", "2^26-element allocate + parallel first touch, 4 threads");
}

void probe_stats(std::vector<layer_metric>& out) {
  namespace stats = pstlb::stats;
  const bool was = stats::enabled();
  const auto call = [] { const stats::scoped_call c(stats::op::reduce); };
  stats::set_enabled(false);
  add(out, "stats.disabled_ns", per_op_ns("probe.stats.disabled", 1 << 16, 30, call), "ns",
      "one scoped_call, registry off");
  stats::set_enabled(true);
  add(out, "stats.enabled_ns", per_op_ns("probe.stats.enabled", 1 << 14, 30, call), "ns",
      "one scoped_call, registry on");
  stats::set_enabled(was);
}

}  // namespace

void run_probes(std::vector<layer_metric>& out, unsigned long long& failures) {
  probe_seq_call(out);
  probe_arena(out);
  probe_pools(out);
  probe_backends(out);
  probe_simd(out, failures);
  probe_stats(out);
  probe_bulk(out, failures);
  probe_numa(out);
}

void run_arena_contention(unsigned long long& failures) {
  slot s;
  std::uint64_t ignored = 0;
  make_slot(s, index_t{1} << 18, 1, 3, 902, ignored);
  std::atomic<unsigned long long> wrong{0};
  std::vector<std::thread> team;
  for (policy p : {policy::par, policy::fork_join, policy::task, policy::omp_dynamic}) {
    team.emplace_back([&, p] {
      spans::scope sp("probe.arena.contention", static_cast<std::uint64_t>(p));
      for (int i = 0; i < 400; ++i) {
        // reduce only reads the slot, so the four callers share it.
        try {
          if (!verify(kernel::reduce, s, call_pstlb(kernel::reduce, p, s))) { ++wrong; }
        } catch (...) {
          ++wrong;
        }
      }
    });
  }
  for (auto& th : team) { th.join(); }
  failures += wrong.load();
}

}  // namespace perfbench

// pstlb_e2e: the end-to-end benchmark binary (see README.md here).
//
//   pstlb_e2e --workload <dispatch_floor|bulk_scaling|serve_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//   pstlb_e2e --self-test <names|verify>
//   pstlb_e2e --workload <name> --seed <n> --setup-only 1   (prints setup_s=)
//
// Prints every metric by name and unit, then one JSON object as the last
// line. Exits 1 when any call failed (threw or returned a wrong result).
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_core/result_store.hpp"
#include "harness.hpp"
#include "probes.hpp"
#include "pstlb/detail/simd/isa.hpp"
#include "sched/arena.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string self_test;
  bool setup_only = false;
};

bool parse(int argc, char** argv, options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else if (key == "--self-test") {
      opt.self_test = value;
    } else if (key == "--setup-only") {
      opt.setup_only = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (!opt.workload.empty() || !opt.self_test.empty()) &&
         opt.seconds > 0;
}

/// Every kernel name must call its own algorithm: on one input, the pstlb
/// result of each name equals the std result of the same name, and no two
/// names produce the same result.
int check_names() {
  slot s;
  std::uint64_t ignored = 0;
  make_slot(s, 1 << 12, 1 << 12, 12345, 7, ignored);
  std::map<std::uint64_t, kernel> seen;
  bool ok = true;
  for (int i = 0; i < kernel_count; ++i) {
    const auto k = static_cast<kernel>(i);
    prepare(k, s);
    const std::uint64_t got = result_signature(k, s, call_pstlb(k, policy::par, s));
    prepare(k, s);
    const std::uint64_t want = result_signature(k, s, call_std(k, s));
    std::printf("name %-15s pstlb %016llx std %016llx\n", kernel_name(k),
                static_cast<unsigned long long>(got), static_cast<unsigned long long>(want));
    if (got != want) {
      std::printf("FAIL: %s does not match std::%s\n", kernel_name(k), kernel_name(k));
      ok = false;
    }
    const auto [it, fresh] = seen.emplace(got, k);
    if (!fresh) {
      std::printf("FAIL: %s and %s produce the same result\n", kernel_name(it->second),
                  kernel_name(k));
      ok = false;
    }
  }
  std::printf("names: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

/// The check must reject a call that did no work: after the std reference
/// has filled `out`, prepare() and an empty result must fail verify().
int check_verify() {
  slot s;
  std::uint64_t ignored = 0;
  make_slot(s, 1 << 12, 1 << 12, 12345, 7, ignored);
  bool ok = true;
  for (int i = 0; i < kernel_count; ++i) {
    const auto k = static_cast<kernel>(i);
    prepare(k, s);
    const bool reference_passes = verify(k, s, call_std(k, s));
    prepare(k, s);
    const bool skipped_passes = verify(k, s, call_result{});
    std::printf("verify %-15s reference %s, skipped call %s\n", kernel_name(k),
                reference_passes ? "passes" : "FAILS", skipped_passes ? "PASSES" : "rejected");
    ok = ok && reference_passes && !skipped_passes;
  }
  std::printf("verify: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

double wait_quantile_ns(const std::uint64_t* hist, double q) {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < pstlb::sched::arena_hist_buckets; ++b) { total += hist[b]; }
  if (total == 0) { return 0; }
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < pstlb::sched::arena_hist_buckets; ++b) {
    seen += hist[b];
    if (static_cast<double>(seen) >= q * static_cast<double>(total)) {
      return static_cast<double>(std::uint64_t{1} << b);
    }
  }
  return 0;
}

/// Default-arena queue metrics between two snapshots. Shed and
/// sequential-cap shares are printed only: at the default knobs (no
/// deadline, 64 pending slots, width >= 2) they stay 0.
void arena_metrics(const pstlb::sched::arena_snapshot& before,
                   const pstlb::sched::arena_snapshot& after, const char* source,
                   std::vector<layer_metric>& out) {
  std::uint64_t waits[pstlb::sched::arena_hist_buckets] = {};
  for (std::size_t b = 0; b < pstlb::sched::arena_hist_buckets; ++b) {
    waits[b] = after.wait_hist[b] - before.wait_hist[b];
  }
  const double shed = static_cast<double>(after.shed_total() - before.shed_total());
  const double seq_cap = static_cast<double>(after.sequential_cap - before.sequential_cap);
  const double admitted = static_cast<double>(after.admitted - before.admitted);
  const std::string note = std::string("admission wait, log2-bucket lower bound, ") + source;
  out.push_back({"arena.wait_p50_ns", wait_quantile_ns(waits, 0.5), "ns", note});
  out.push_back({"arena.wait_p99_ns", wait_quantile_ns(waits, 0.99), "ns", note});
  out.push_back({"arena.peak_pending", static_cast<double>(after.peak_pending), "count",
                 "admission queue high-water mark"});
  std::printf("arena: %.0f admitted, %.0f shed, %.0f sent sequential by the cap (%s)\n", admitted,
              shed, seq_cap, source);
}

/// Latency figures that neither host noise nor the few extreme samples
/// around a pooled median move much.
///  - The p50 is taken per period and then over periods: every period holds
///    the same mix (a round holds each cell once), while the pooled median
///    of a mix of cells falls between the slowest call of one cell and the
///    fastest of the next.
///  - The tail needs more calls than a period may hold, so consecutive
///    periods are grouped into windows of at least `window_calls` calls (a
///    short last window joins the one before). A pass of fewer than
///    2 * `window_calls` calls is one window: its pooled tail.
///  - Both are quiet medians (harness.hpp) over the periods or windows:
///    hypervisor steal stalls a pool's participants and the callers queued
///    behind them, so a period with more steal reads several times slower.
struct windowed_latency {
  double p50_ns = 0;
  double tail_ns = 0;
  double tail_q = 0.5;
  std::size_t periods = 0;
  std::size_t windows = 0;
};

/// 1000 calls leave 10 beyond a window's p99.
constexpr std::size_t window_calls = 1000;

windowed_latency window_latency(const measurement& m) {
  std::vector<double> p50s;
  std::vector<double> p50_steal;
  std::vector<std::vector<double>> windows;
  std::vector<double> steal_sum;  // per window, summed over its periods
  std::vector<double> window_periods;
  std::vector<double> open;
  double open_steal = 0;
  double open_periods = 0;
  for (std::size_t i = 0; i < m.period_latency_ns.size(); ++i) {
    const auto& period = m.period_latency_ns[i];
    if (period.empty()) { continue; }
    p50s.push_back(median(period));
    p50_steal.push_back(m.period_steal[i]);
    open.insert(open.end(), period.begin(), period.end());
    open_steal += m.period_steal[i];
    open_periods += 1;
    if (open.size() >= window_calls) {
      windows.push_back(std::move(open));
      steal_sum.push_back(open_steal);
      window_periods.push_back(open_periods);
      open.clear();
      open_steal = 0;
      open_periods = 0;
    }
  }
  if (!open.empty()) {
    if (windows.empty()) {
      windows.emplace_back();
      steal_sum.push_back(0);
      window_periods.push_back(0);
    }
    windows.back().insert(windows.back().end(), open.begin(), open.end());
    steal_sum.back() += open_steal;
    window_periods.back() += open_periods;
  }
  std::vector<double> window_steal;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    window_steal.push_back(steal_sum[i] / window_periods[i]);
  }
  windowed_latency w;
  w.periods = p50s.size();
  w.windows = windows.size();
  if (windows.empty()) { return w; }
  std::size_t smallest = windows[0].size();
  for (const auto& x : windows) { smallest = std::min(smallest, x.size()); }
  w.tail_q = tail_percentile(smallest);
  std::vector<double> tails;
  for (const auto& x : windows) { tails.push_back(quantile(x, w.tail_q)); }
  w.p50_ns = quiet_median(p50s, p50_steal);
  w.tail_ns = quiet_median(tails, window_steal);
  return w;
}

/// Set-ups made in fresh processes besides this one's; setup_s is the
/// median of all of them.
constexpr int extra_setups = 2;

/// Runs this binary with --setup-only in a child process and returns the
/// set-up time it reports, or -1 when it fails.
double child_setup_s(const options& opt) {
  int fds[2];
  if (pipe(fds) != 0) { return -1; }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string seed = std::to_string(opt.seed);
  std::string workload = opt.workload;
  char name[] = "pstlb_e2e";
  char workload_flag[] = "--workload";
  char seed_flag[] = "--seed";
  char setup_flag[] = "--setup-only";
  char one[] = "1";
  char* args[] = {name, workload_flag, workload.data(), seed_flag, seed.data(),
                  setup_flag, one, nullptr};
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, args, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (spawned != 0) { return -1; }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
  const std::size_t at = out.find("setup_s=");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || at == std::string::npos) { return -1; }
  return std::strtod(out.c_str() + at + 8, nullptr);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct metric {
  std::string name;
  double value;
  std::string unit;
  bool lower_is_better;
};

/// Canonical BENCH JSON (bench_core/result_store), readable by
/// `pstlb_cli --mode=compare|trend`. The envelope schema is closed, so the
/// host context (nproc, LLC, ISA, load, noise floor, steal) travels as rows
/// of suite perfbench/<workload>/host.
void write_bench_json(const std::string& path, const std::string& workload,
                      const std::vector<metric>& end_to_end, const std::vector<metric>& host,
                      const std::string& isa, const measurement& m,
                      const std::vector<layer_metric>& layers) {
  namespace results = pstlb::bench::results;
  results::run_document doc;
  doc.envelope = results::current_envelope("perfbench_" + workload);
  auto row = [&](const std::string& suite, const std::string& kernel, const std::string& backend,
                 double size, const std::string& unit, bool lower, std::vector<double> samples) {
    results::sample_result r;
    r.suite = "perfbench/" + workload + suite;
    r.kernel = kernel;
    r.backend = backend;
    r.machine = "host";
    r.from = results::provenance::native;
    r.size = size;
    r.threads = policy_threads;
    r.unit = unit;
    r.lower_is_better = lower;
    for (double& x : samples) { x = std::isfinite(x) ? std::max(0.0, x) : 0.0; }
    r.samples = std::move(samples);
    r.finalize();
    doc.results.push_back(std::move(r));
  };
  for (const metric& e : end_to_end) {
    row("", e.name, "all", 0, e.unit, e.lower_is_better, {e.value});
  }
  for (const metric& h : host) { row("/host", h.name, isa, 0, h.unit, h.lower_is_better, {h.value}); }
  // Per cell: the pstlb latencies and the paired std latencies, at most 64
  // samples each, evenly strided over the pass.
  auto strided = [](const std::vector<double>& all) {
    std::vector<double> samples;
    const std::size_t stride = (all.size() + 63) / 64;
    for (std::size_t i = 0; i < all.size(); i += stride) { samples.push_back(all[i]); }
    return samples;
  };
  for (const auto& [key, c] : m.cells) {
    if (c.pstlb_ns.empty() || c.std_ns.empty()) { continue; }
    const char* k = kernel_name(std::get<0>(key));
    const char* p = policy_name(std::get<2>(key));
    const auto n = static_cast<double>(std::get<1>(key));
    row("/cells", k, p, n, "ns", true, strided(c.pstlb_ns));
    row("/std_cells", k, p, n, "ns", true, strided(c.std_ns));
  }
  for (const layer_metric& l : layers) { row("/layers", l.name, "all", 0, l.unit, false, {l.value}); }
  std::ofstream out(path);
  results::write_json(doc, out);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::uint64_t process_start = now_ns();
  options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: pstlb_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>] | --self-test <names|verify>\n");
    return 2;
  }
  if (opt.self_test == "names") { return check_names(); }
  if (opt.self_test == "verify") { return check_verify(); }
  std::unique_ptr<workload> w = make_workload(opt.workload);
  if (!w) {
    std::fprintf(stderr, "pstlb_e2e: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  const double load_before = host_loadavg();
  const auto steal_before = host_steal_jiffies();

  // A set-up runs from entry to main to the end of w->setup(): pool spawn,
  // input allocation and first touch, reference results, warmup.
  std::uint64_t input_hash = 0;
  w->setup(opt.seed, input_hash);
  const double own_setup_s = static_cast<double>(now_ns() - process_start) * 1e-9;
  if (opt.setup_only) {
    std::printf("setup_s=%.9f\n", own_setup_s);
    return 0;
  }

  std::vector<double> noise;
  for (int i = 0; i < 10; ++i) { noise.push_back(noise_probe_ns()); }

  auto& arena = pstlb::sched::arena::default_arena();
  auto arena_before = arena.snapshot();
  measurement m;
  measurement traced;
  std::vector<layer_metric> layers;
  unsigned long long probe_failures = 0;
  if (!opt.trace) {
    m = w->measure(opt.seconds);
  } else {
    // Half the time untraced (the reference for the overhead), half traced.
    m = w->measure(opt.seconds / 2);
    spans::enable(true);
    {
      spans::scope root(w->name());
      traced = w->measure(opt.seconds / 2);
    }
  }
  auto arena_after = arena.snapshot();
  if (opt.trace) {
    run_probes(layers, probe_failures);
    // Only serve_mix queues at the default arena; elsewhere the queue
    // metrics come from a short serve_mix-shaped load of four callers.
    if (opt.workload != "serve_mix") {
      arena_before = arena.snapshot();
      run_arena_contention(probe_failures);
      arena_after = arena.snapshot();
    }
    spans::enable(false);
  }
  for (int i = 0; i < 10; ++i) { noise.push_back(noise_probe_ns()); }
  const double load_after = host_loadavg();
  const auto steal_after = host_steal_jiffies();
  const double steal_span = steal_after.second - steal_before.second;
  const double steal_frac =
      steal_span > 0 ? (steal_after.first - steal_before.first) / steal_span : 0;

  // setup_s is the median of this process's set-up and those of fresh
  // processes, made after this one's inputs are freed. A single set-up is
  // short enough that one burst of host noise can double it.
  const std::string workload_name = w->name();
  const std::string workload_description = w->describe();
  w.reset();
  std::vector<double> setups = {own_setup_s};
  if (!opt.trace) {
    for (int i = 0; i < extra_setups; ++i) {
      const double s = child_setup_s(opt);
      if (s > 0) { setups.push_back(s); }
    }
  }
  const double setup_s = median(setups);

  // --- end-to-end metrics (untraced pass only)
  double noise_mean = 0;
  for (double x : noise) { noise_mean += x; }
  noise_mean /= static_cast<double>(noise.size());
  double noise_var = 0;
  for (double x : noise) { noise_var += (x - noise_mean) * (x - noise_mean); }
  const double noise_cv = std::sqrt(noise_var / static_cast<double>(noise.size())) / noise_mean;

  const windowed_latency win = window_latency(m);
  const std::uint64_t attempted = m.attempted + traced.attempted;
  const std::uint64_t failed = m.failed() + traced.failed() + probe_failures;
  const double error_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;
  const std::vector<metric> end_to_end = {
      {"setup_s", setup_s, "s", true},
      {"call_p50_us", win.p50_ns * 1e-3, "us", true},
      {"call_tail_us", win.tail_ns * 1e-3, "us", true},
      {"ops_per_s", m.ops_per_s, "1/s", false},
      {"speedup_vs_std", m.speedup_vs_std(), "x", false},
      {"error_frac", error_frac, "fraction", true},
      {"peak_rss_mib", peak_rss_mib(), "MiB", true},
  };

  const pstlb::simd::isa isa = pstlb::simd::active();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", workload_name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("workload: %s\n", workload_description.c_str());
  std::printf("host: nproc=%u llc_bytes=%llu simd_isa=%s loadavg_before=%.2f loadavg_after=%.2f "
              "noise_probe_cv=%.4f steal_frac=%.4f\n",
              host_nproc(), static_cast<unsigned long long>(host_llc_bytes()),
              std::string(pstlb::simd::name(isa)).c_str(), load_before, load_after, noise_cv,
              steal_frac);
  std::printf("input_hash=%016llx\n", static_cast<unsigned long long>(input_hash));
  std::printf("metric setup_s = %.6f s (median of %zu set-ups, each from entry to main to the end "
              "of set-up, this process's and %zu in fresh processes; this process %.6f s)\n",
              end_to_end[0].value, setups.size(), setups.size() - 1, own_setup_s);
  const double pooled_tail_q = tail_percentile(m.latency_ns.size());
  std::printf("metric call_p50_us = %.4f us (quiet median over %zu periods of their p50, %zu "
              "checked calls; pooled p50 %.4f us)\n",
              end_to_end[1].value, win.periods, m.latency_ns.size(), median(m.latency_ns) * 1e-3);
  std::printf("metric call_tail_us = %.4f us (quiet median over %zu windows of >= %zu calls of their "
              "p%g; pooled p%g %.4f us)\n",
              end_to_end[2].value, win.windows, window_calls, win.tail_q * 100, pooled_tail_q * 100,
              quantile(m.latency_ns, pooled_tail_q) * 1e-3);
  std::printf("metric ops_per_s = %.3f 1/s (per caller, quiet median over periods of checked "
              "calls / time inside those calls, summed over callers)\n",
              end_to_end[3].value);
  std::printf("metric speedup_vs_std = %.5f x (geomean over %zu cells)\n", end_to_end[4].value,
              m.cells.size());
  std::printf("metric error_frac = %.6f (%llu of %llu calls failed: %llu threw, %llu wrong, "
              "%llu probe mismatches)\n",
              error_frac, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(m.threw + traced.threw),
              static_cast<unsigned long long>(m.mismatched + traced.mismatched),
              probe_failures);
  std::printf("metric peak_rss_mib = %.2f MiB\n", end_to_end[6].value);

  // --- per-kernel breakdown (every run) and per-layer metrics (traced run)
  std::vector<layer_metric> kernel_speedups;
  for (int i = 0; i < kernel_count; ++i) {
    const auto k = static_cast<kernel>(i);
    const double s = m.speedup_vs_std(&k);
    if (s > 0) {
      kernel_speedups.push_back({std::string("pstlb.") + kernel_name(k) + ".speedup_vs_std", s,
                                 "x", "geomean over this kernel's cells"});
    }
  }
  for (const layer_metric& l : kernel_speedups) {
    std::printf("kernel %s = %.5f %s\n", l.name.c_str(), l.value, l.unit.c_str());
  }
  if (opt.trace) {
    // The kernels every workload runs; the rest stay in the printed breakdown.
    for (const char* k : {"for_each", "reduce", "inclusive_scan", "sort"}) {
      const std::string name = std::string("pstlb.") + k + ".speedup_vs_std";
      for (const layer_metric& l : kernel_speedups) {
        if (l.name == name) { layers.push_back(l); }
      }
    }
    arena_metrics(arena_before, arena_after,
                  opt.workload == "serve_mix" ? "serve_mix passes" : "4-caller contention probe",
                  layers);
    layers.push_back({"host.noise_probe_cv", noise_cv, "fraction",
                      "fixed single-thread loop, 10 timings at start and 10 at end"});
    // Tracing overhead as traced / untraced, about 1 when tracing is free.
    const windowed_latency traced_win = window_latency(traced);
    const std::pair<const char*, std::pair<double, double>> ratios[] = {
        {"trace.ratio.call_p50_us", {traced_win.p50_ns * 1e-3, end_to_end[1].value}},
        {"trace.ratio.call_tail_us", {traced_win.tail_ns * 1e-3, end_to_end[2].value}},
        {"trace.ratio.ops_per_s", {traced.ops_per_s, end_to_end[3].value}},
        {"trace.ratio.speedup_vs_std", {traced.speedup_vs_std(), end_to_end[4].value}},
    };
    for (const auto& [name, values] : ratios) {
      layers.push_back({name, values.first / values.second, "x",
                        "traced half / untraced half of this run"});
    }
    for (const layer_metric& l : layers) {
      std::printf("layer %s = %.6g %s%s%s\n", l.name.c_str(), l.value, l.unit.c_str(),
                  l.note.empty() ? "" : "  # ", l.note.c_str());
    }
  }

  std::filesystem::create_directories(opt.out_dir);
  const std::string bench_path = opt.out_dir + "/BENCH_perfbench_" + opt.workload + ".json";
  const std::vector<metric> host = {
      {"nproc", static_cast<double>(host_nproc()), "count", false},
      {"llc_bytes", static_cast<double>(host_llc_bytes()), "B", false},
      {"simd_isa_level", static_cast<double>(static_cast<int>(isa)), "level", false},
      {"loadavg_before", load_before, "load", true},
      {"loadavg_after", load_after, "load", true},
      {"noise_probe_cv", noise_cv, "fraction", true},
      {"steal_frac", steal_frac, "fraction", true},
  };
  write_bench_json(bench_path, opt.workload, end_to_end, host,
                   std::string(pstlb::simd::name(isa)), m, layers);
  std::printf("bench_json: %s\n", bench_path.c_str());
  if (opt.trace) {
    const std::string span_path = opt.out_dir + "/spans_" + opt.workload + ".json";
    spans::write_chrome(span_path);
    std::printf("spans: %zu written to %s\n", spans::count(), span_path.c_str());
  }

  // --- result line: end-to-end metrics, or the per-layer ones when traced.
  // error_frac is carried by attempted/failed, not as a metric.
  std::string json = "{\"correct\": ";
  const bool correct = failed == 0;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double value, const std::string& unit) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + json_number(value) +
            ", \"unit\": \"" + unit + "\"}";
    first = false;
  };
  if (!opt.trace) {
    for (const metric& e : end_to_end) {
      if (e.name != "error_frac") { emit(e.name, e.value, e.unit); }
    }
  } else {
    for (const layer_metric& l : layers) { emit(l.name, l.value, l.unit); }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// Tab. 4 companion: vector-width columns for the par_unseq SIMD leaf layer.
//
// Sim leg ([sim] rows, deterministic, hard-gated by the perf-gate CI job):
// the ICC-TBB reduce profile is calibrated at vector_lanes = 4 (Tab. 4's
// 256-bit packed FP row). Sweeping machine.vector_width over {0.25, 0.5,
// 1.0, 2.0} models the same kernel built scalar/SSE2/AVX2/AVX-512 (1/2/4/8
// effective lanes), and the FP-width counters migrate across the
// fp_scalar/fp_128/fp_256/fp_512 columns accordingly.
//
// Native leg (this host): forces each compiled+detected ISA level in turn
// and times pstlb::reduce and binary pstlb::transform (std::plus) under the
// unseq policy at 2^24 doubles. The avx2-vs-scalar single-thread
// reduce/transform speedup is checked against the 1.5x acceptance bar
// warn-only — DRAM-bound transform legitimately lands near 1x on
// bandwidth-starved hosts; the deterministic sim leg is the hard gate.
#include "common.hpp"

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_core/wrapper.hpp"
#include "pstlb/detail/simd/isa.hpp"
#include "pstlb/pstlb.hpp"

namespace pstlb::bench {
namespace {

struct width_point {
  const char* label;   // modeled build ISA
  double width;        // machine.vector_width multiplier
};

constexpr width_point kWidths[] = {
    {"scalar", 0.25}, {"sse2", 0.5}, {"avx2", 1.0}, {"avx512", 2.0}};

sim::kernel_params params() {
  sim::kernel_params p;
  p.kind = sim::kernel::reduce;
  p.n = kN30;
  return p;
}

/// Mach A with the vector-width multiplier applied; static storage because
/// register_sim_benchmark captures the machine by reference.
const sim::machine& mach_a_width(const width_point& w) {
  static std::vector<std::optional<sim::machine>> cache(std::size(kWidths));
  const std::size_t i = static_cast<std::size_t>(&w - kWidths);
  if (!cache[i].has_value()) {
    sim::machine m = sim::machines::mach_a();
    m.name = "Mach A (" + std::string(w.label) + ")";
    m.vector_width = w.width;
    cache[i].emplace(std::move(m));
  }
  return *cache[i];
}

void register_benchmarks() {
  for (const width_point& w : kWidths) {
    for (unsigned threads : {1u, 32u}) {
      register_sim_benchmark("tab4_simd/reduce/" + std::string(w.label) + "/t" +
                                 std::to_string(threads),
                             mach_a_width(w), sim::profiles::icc_tbb(), params(),
                             threads);
    }
  }
}

void sim_report(std::ostream& os) {
  table t("Tab. 4 companion: X::reduce on Mach A, ICC-TBB codegen modeled at "
          "four vector widths [provider: sim]");
  t.set_header({"metric", "scalar", "sse2", "avx2", "avx512"});
  std::vector<counters::counter_set> t1;
  std::vector<counters::counter_set> t32;
  for (const width_point& w : kWidths) {
    const auto& m = mach_a_width(w);
    t1.push_back(
        sim::run(m, sim::profiles::icc_tbb(), params(), 1,
                 sim::paper_alloc_for(sim::profiles::icc_tbb()))
            .ctrs);
    t32.push_back(
        sim::run(m, sim::profiles::icc_tbb(), params(), 32,
                 sim::paper_alloc_for(sim::profiles::icc_tbb()))
            .ctrs);
  }
  auto row = [&](const std::string& label, const auto& samples, auto metric) {
    std::vector<std::string> cells{label};
    for (const auto& s : samples) { cells.push_back(metric(s)); }
    t.add_row(cells);
  };
  row(tagged("FP scalar", "sim"), t1,
      [](const counters::counter_set& s) { return eng(s.fp_scalar); });
  row(tagged("FP 128-bit packed", "sim"), t1,
      [](const counters::counter_set& s) { return eng(s.fp_128); });
  row(tagged("FP 256-bit packed", "sim"), t1,
      [](const counters::counter_set& s) { return eng(s.fp_256); });
  row(tagged("FP 512-bit packed", "sim"), t1,
      [](const counters::counter_set& s) { return eng(s.fp_512); });
  row(tagged("Seconds (1 thread)", "sim"), t1,
      [](const counters::counter_set& s) { return fmt(s.seconds, 3); });
  row(tagged("Seconds (32 threads)", "sim"), t32,
      [](const counters::counter_set& s) { return fmt(s.seconds, 3); });
  row(tagged("GFLOP/s (32 threads)", "sim"), t32, [](const counters::counter_set& s) {
    return fmt(s.flops() / s.seconds * 1e-9, 2);
  });
  t.print(os);
  os << "Reading: single-thread seconds shrink with width until the core's\n"
        "share of DRAM bandwidth takes over; at 32 threads the columns\n"
        "converge — the memory wall, not the FP units, bounds Tab. 4's\n"
        "bandwidth rows, which is why wider vectors barely move the paper's\n"
        "large-size numbers.\n";
}

void native_report(std::ostream& os) {
  constexpr unsigned log2n = 24;
  const index_t n = index_t{1} << log2n;
  constexpr int kReps = 5;
  std::vector<double> a(static_cast<std::size_t>(n));
  std::vector<double> b(static_cast<std::size_t>(n));
  std::vector<double> out(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<double>(i % 97) * 0.5;
    b[static_cast<std::size_t>(i)] = static_cast<double>(i % 89) * 0.25;
  }

  struct isa_row {
    simd::isa level;
    double reduce_s = 0;
    double transform_s = 0;
    std::vector<double> reduce_samples;
    std::vector<double> transform_samples;
  };
  std::vector<isa_row> rows;
  const simd::isa restore = simd::active();
  for (int l = 0; l < simd::isa_count; ++l) {
    const auto level = static_cast<simd::isa>(l);
    if (simd::force(level) != level) { continue; }  // host/build can't run it
    isa_row r;
    r.level = level;
    double sink = 0;
    auto red = run_reps("tab4_simd/reduce", kReps, [] {}, [&] {
      sink += pstlb::reduce(execution::unseq, a.begin(), a.end());
    });
    benchmark::DoNotOptimize(sink);
    r.reduce_s = red.best.seconds;
    r.reduce_samples = std::move(red.samples);
    auto tra = run_reps("tab4_simd/transform", kReps, [] {}, [&] {
      pstlb::transform(execution::unseq, a.begin(), a.end(), b.begin(),
                       out.begin(), std::plus<>{});
    });
    benchmark::DoNotOptimize(out.data());
    r.transform_s = tra.best.seconds;
    r.transform_samples = std::move(tra.samples);
    rows.push_back(std::move(r));
  }
  simd::force(restore);

  table t("Tab. 4 companion (native, this host): unseq reduce / binary "
          "transform, n=2^" + std::to_string(log2n) + " doubles, 1 thread, " +
          std::to_string(kReps) + " reps (best)");
  t.set_header({"isa", "reduce s", "reduce GiB/s", "speedup", "transform s",
                "transform GiB/s", "speedup"});
  const double red_bytes = static_cast<double>(n) * sizeof(double);
  const double tra_bytes = 3.0 * static_cast<double>(n) * sizeof(double);
  const double gib = 1024.0 * 1024.0 * 1024.0;
  for (const isa_row& r : rows) {
    t.add_row({std::string(simd::name(r.level)), fmt(r.reduce_s, 4),
               fmt(red_bytes / r.reduce_s / gib, 1),
               fmt(rows.front().reduce_s / r.reduce_s, 2), fmt(r.transform_s, 4),
               fmt(tra_bytes / r.transform_s / gib, 1),
               fmt(rows.front().transform_s / r.transform_s, 2)});
    record_native_result("tab4_simd_reduce", std::string(simd::name(r.level)),
                         static_cast<double>(n), 1, r.reduce_samples);
    record_native_result("tab4_simd_transform", std::string(simd::name(r.level)),
                         static_cast<double>(n), 1, r.transform_samples);
  }
  t.print(os);

  // Warn-only acceptance probe: avx2 >= 1.5x scalar single-thread. The
  // deterministic sim leg above is the hard perf gate; this one depends on
  // the host's per-core DRAM bandwidth.
  for (const isa_row& r : rows) {
    if (r.level != simd::isa::avx2) { continue; }
    const double red_speedup = rows.front().reduce_s / r.reduce_s;
    const double tra_speedup = rows.front().transform_s / r.transform_s;
    if (red_speedup < 1.5) {
      os << "WARNING: avx2 reduce speedup " << fmt(red_speedup, 2)
         << "x below the 1.5x bar (memory-bound host?)\n";
    }
    if (tra_speedup < 1.5) {
      os << "WARNING: avx2 transform speedup " << fmt(tra_speedup, 2)
         << "x below the 1.5x bar (transform is DRAM-bound at this size)\n";
    }
  }
  simd::report_selection();  // the "pstlb: simd isa=..." line CI greps
}

void report(std::ostream& os) {
  sim_report(os);
  native_report(os);
}

}  // namespace
}  // namespace pstlb::bench

using namespace pstlb::bench;
PSTLB_BENCH_MAIN(report)

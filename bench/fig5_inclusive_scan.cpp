// Figure 5: X::inclusive_scan on Mach C (Zen 3) — (a) problem scaling at 128
// threads, (b) strong scaling at 2^30 elements. GCC-GNU prints N/A (no
// parallel scan); NVC-OMP silently runs sequential code.
//
// In addition to the simulated panels, this binary measures the scan
// skeleton natively on the current host against std::inclusive_scan, with
// the software-accounted input traffic (one DRAM read per element: the
// skeleton's in-chunk re-read is cache-resident). Every pstlb result is
// checked against the std result outside the timed region; a mismatch exits
// with status 1.
#include "kernel_figure.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "bench_core/wrapper.hpp"
#include "counters/counters.hpp"
#include "pstlb/env.hpp"
#include "pstlb/pstlb.hpp"

namespace pstlb::bench {
namespace {

void print_native_scan(std::ostream& os) {
  // 2^26 elements is the paper's "beyond LLC" regime; PSTLB_FIG5_NATIVE_LOG2
  // trims it for quick runs on small hosts.
  const unsigned max_log2 = env::unsigned_or("PSTLB_FIG5_NATIVE_LOG2", 26);
  const int reps = static_cast<int>(env::unsigned_or("PSTLB_FIG5_NATIVE_REPS", 3));
  table t("Figure 5 (native, this host): X::inclusive_scan single-pass "
          "skeleton vs std::inclusive_scan [steal backend]");
  t.set_header({"size", "threads", "std [s]", "pstlb [s]", "speedup",
                "pstlb rd B/elem"});
  // Integer-valued doubles: every prefix is exact, so the check is equality
  // whatever the skeleton's association order.
  std::vector<elem_t> input(std::size_t{1} << max_log2);
  std::iota(input.begin(), input.end(), elem_t{1});
  std::vector<elem_t> expected(input.size());
  std::vector<elem_t> output(input.size());
  for (unsigned log2 = 22; log2 <= max_log2; log2 += 2) {
    const index_t n = index_t{1} << log2;
    const auto first = input.begin();
    const auto last = input.begin() + n;
    double std_seconds = 0;
    // threads == 0 times std::inclusive_scan into `expected`; every other
    // width times pstlb::inclusive_scan into `output` and checks it.
    for (unsigned threads : {0u, 1u, 2u, 4u, 8u}) {
      exec::steal_policy policy{threads == 0 ? 1 : threads};
      policy.seq_threshold = 0;
      std::fill(output.begin(), output.begin() + n, elem_t{0});  // no prefix is 0
      const reps_result run = run_reps("fig5/native", reps, [] {}, [&] {
        if (threads == 0) {
          std::inclusive_scan(first, last, expected.begin());
        } else {
          pstlb::inclusive_scan(policy, first, last, output.begin());
        }
      });
      record_native_result("inclusive_scan", threads == 0 ? "std" : "steal",
                           static_cast<double>(n), policy.threads, run.samples);
      if (threads == 0) {
        std_seconds = run.best.seconds;
        continue;
      }
      if (!std::equal(output.begin(), output.begin() + n, expected.begin())) {
        std::fprintf(stderr,
                     "fig5_inclusive_scan: pstlb::inclusive_scan differs from "
                     "std::inclusive_scan at n=2^%u threads=%u\n",
                     log2, threads);
        std::exit(1);
      }
      t.add_row({pow2_label(static_cast<double>(n)), std::to_string(threads),
                 eng(std_seconds), eng(run.best.seconds),
                 fmt(std_seconds / run.best.seconds, 2) + "x",
                 fmt(run.best.bytes_read / static_cast<double>(n), 1)});
    }
  }
  t.print(os);
  os << "pstlb = single-pass chained scan with decoupled lookback: one pool\n"
        "launch and ~1x DRAM input reads per element (the in-chunk re-read is\n"
        "cache-resident). At 1 thread it runs the sequential loop.\n\n";
}

void register_benchmarks() {
  register_kernel_benchmarks("fig5/inclusive_scan/MachC", sim::machines::mach_c(),
                             sim::kernel::inclusive_scan);
}

void report(std::ostream& os) {
  print_problem_scaling(os, "Figure 5", sim::machines::mach_c(),
                        sim::kernel::inclusive_scan);
  print_strong_scaling(os, "Figure 5", sim::machines::mach_c(),
                       sim::kernel::inclusive_scan);
  print_native_scan(os);
  os << "Paper reference (Fig. 5 / Table 5): sequential wins up to ~2^22 (L2)\n"
        "and loses beyond the LLC (~2^26); TBB-based backends reach ~5 at 128\n"
        "threads; NVC-OMP stays at ~0.9 (sequential fallback); HPX ~1.\n";
}

}  // namespace
}  // namespace pstlb::bench

using namespace pstlb::bench;
PSTLB_BENCH_MAIN(report)

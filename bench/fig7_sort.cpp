// Figure 7: X::sort on Mach C (Zen 3) — (a) problem scaling, (b) strong
// scaling at 2^30 elements.
//
// In addition to the simulated panels, this binary measures the two native
// sort pipelines on the current host: the block-sort + merge-round mergesort
// (whose full-array pass count grows with the thread count) against the
// counting samplesort (a constant number of passes), side by side, with the
// software-accounted per-phase traffic that explains the gap. Both pipelines
// are called directly on a steal backend of each width (pstlb::sort picks
// one by the input size), and every result is checked against std::sort
// outside the timed region; a mismatch exits with status 1.
#include "kernel_figure.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>
#include <string_view>
#include <vector>

#include "bench_core/wrapper.hpp"
#include "counters/counters.hpp"
#include "pstlb/detail/sort_stats.hpp"
#include "pstlb/env.hpp"
#include "pstlb/pstlb.hpp"

namespace pstlb::bench {
namespace {

struct sort_sample {
  double seconds = 0;  // best-of-reps wall time
  detail::sort_traffic_stats stats;
};

/// Times `pipeline` ("merge" or "sample") sorting the first `n` elements of
/// `input` in `work`, then checks `work` against `expected`.
sort_sample measure_sort(const char* pipeline, unsigned threads, index_t n,
                         const std::vector<elem_t>& input,
                         const std::vector<elem_t>& expected,
                         std::vector<elem_t>& work, int reps) {
  const backends::backend be = backends::steal_backend(threads);
  const bool merge = std::string_view(pipeline) == "merge";
  sort_sample best;
  reps_result run = run_reps(
      "fig7/native", reps,
      [&] { std::copy(input.begin(), input.begin() + n, work.begin()); },
      [&] {
        if (merge) {
          detail::parallel_mergesort<false>(be, work.begin(), n, std::less<>{});
        } else {
          detail::parallel_samplesort<false>(be, work.begin(), n, std::less<>{});
        }
      },
      [&] { best.stats = detail::last_sort_traffic(); });
  if (!std::equal(work.begin(), work.begin() + n, expected.begin())) {
    std::fprintf(stderr,
                 "fig7_sort: %s pipeline differs from std::sort at n=%lld "
                 "threads=%u\n",
                 pipeline, static_cast<long long>(n), threads);
    std::exit(1);
  }
  best.seconds = run.best.seconds;
  record_native_result("sort", pipeline, static_cast<double>(n), threads,
                       run.samples);
  return best;
}

std::string passes_label(const detail::sort_traffic_stats& s) {
  return fmt(s.read_passes(), 1) + "rd+" + fmt(s.write_passes(), 1) + "wr";
}

void print_native_sort_comparison(std::ostream& os) {
  // 2^26 is the paper's beyond-LLC regime and the size the samplesort
  // acceptance criterion targets; PSTLB_FIG7_NATIVE_LOG2 trims it for quick
  // runs on small hosts.
  const unsigned max_log2 = env::unsigned_or("PSTLB_FIG7_NATIVE_LOG2", 26);
  const int reps = static_cast<int>(env::unsigned_or("PSTLB_FIG7_NATIVE_REPS", 3));
  table t("Figure 7 (native, this host): X::sort mergesort vs samplesort "
          "pipeline [steal backend]");
  t.set_header({"size", "threads", "merge [s]", "sample [s]", "speedup",
                "merge passes", "sample passes", "rounds"});
  std::vector<elem_t> input(std::size_t{1} << max_log2);
  std::mt19937_64 rng(0x5eed5eed);
  std::uniform_real_distribution<elem_t> dist(0, 1);
  for (elem_t& x : input) { x = dist(rng); }
  std::vector<elem_t> work(input.size());
  std::vector<elem_t> expected(input.size());
  detail::sort_traffic_stats sample_detail{};
  for (unsigned log2 = 20; log2 <= max_log2; log2 += 2) {
    const index_t n = index_t{1} << log2;
    std::copy(input.begin(), input.begin() + n, expected.begin());
    std::sort(expected.begin(), expected.begin() + n);
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      const auto merge =
          measure_sort("merge", threads, n, input, expected, work, reps);
      const auto sample =
          measure_sort("sample", threads, n, input, expected, work, reps);
      sample_detail = sample.stats;
      t.add_row({pow2_label(static_cast<double>(n)),
                 std::to_string(threads), eng(merge.seconds),
                 eng(sample.seconds),
                 fmt(merge.seconds / sample.seconds, 2) + "x",
                 passes_label(merge.stats), passes_label(sample.stats),
                 std::to_string(merge.stats.merge_round_count)});
    }
  }
  t.print(os);
  // Per-phase breakdown of the last (largest, most threads) samplesort run:
  // where the constant pass budget goes.
  table p("samplesort per-phase traffic at " +
          pow2_label(static_cast<double>(index_t{1} << max_log2)) +
          " [bytes/elem, 8 threads]");
  p.set_header({"phase", "read B/elem", "written B/elem"});
  const double n = sample_detail.input_bytes > 0
                       ? sample_detail.input_bytes / sizeof(elem_t)
                       : 1;
  const std::pair<const char*, const detail::sort_phase_traffic*> phases[] = {
      {"sample", &sample_detail.sample},
      {"classify", &sample_detail.classify},
      {"scatter", &sample_detail.scatter},
      {"buckets", &sample_detail.buckets},
  };
  for (const auto& [name, phase] : phases) {
    p.add_row({name, fmt(phase->read / n, 1), fmt(phase->written / n, 1)});
  }
  p.print(os);
  os << "mergesort streams the whole array once per merge round (1 block-sort\n"
        "pass + ceil(log2(2P)) rounds, growing with the thread count P);\n"
        "samplesort's classify/scatter/bucket pipeline is a constant ~3 read +\n"
        "~2 write passes regardless of P, so it wins wherever the array\n"
        "exceeds the LLC and the extra rounds hit DRAM.\n\n";
}

void register_benchmarks() {
  register_kernel_benchmarks("fig7/sort/MachC", sim::machines::mach_c(),
                             sim::kernel::sort);
}

void report(std::ostream& os) {
  print_problem_scaling(os, "Figure 7", sim::machines::mach_c(), sim::kernel::sort);
  print_strong_scaling(os, "Figure 7", sim::machines::mach_c(), sim::kernel::sort);
  print_native_sort_comparison(os);
  os << "Paper reference (Fig. 7 / Table 5): TBB falls back to sequential\n"
        "below 2^9, HPX below 2^15; GCC-GNU's multiway mergesort dominates at\n"
        "high thread counts (66.6 on Mach C vs ~7-11 for the others); NVC-OMP\n"
        "leads at few threads (better L2 use) but scales worst.\n";
}

}  // namespace
}  // namespace pstlb::bench

using namespace pstlb::bench;
PSTLB_BENCH_MAIN(report)

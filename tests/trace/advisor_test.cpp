#include "trace/analysis/advisor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "sim/run.hpp"
#include "trace/analysis/span_graph.hpp"

namespace pstlb::trace::analysis {
namespace {

constexpr double kN30 = 1024.0 * 1024.0 * 1024.0;

sim::kernel_params params_for(sim::kernel k) {
  sim::kernel_params p;
  p.kind = k;
  p.n = kN30;
  return p;
}

// ---------------------------------------------------------------------------
// Model side
// ---------------------------------------------------------------------------

// The acceptance bar: the closed-form work-span mirror must agree with the
// discrete-event simulator within 15 % at 8/32/128 threads on the Tab. 3/4
// kernels, for every parallel backend profile.
TEST(AdvisorModel, AgreesWithSimulatorWithin15Percent) {
  const sim::machine& m = sim::machines::mach_c();
  for (const sim::kernel k : {sim::kernel::for_each, sim::kernel::reduce}) {
    const sim::kernel_params p = params_for(k);
    for (const sim::backend_profile* prof : sim::profiles::parallel()) {
      const auto alloc = sim::paper_alloc_for(*prof);
      for (const unsigned threads : {8u, 32u, 128u}) {
        const double measured =
            sim::speedup_vs_gcc_seq(m, *prof, p, threads, alloc);
        const double pred_s = predict_seconds(
            m, *prof, p, threads, alloc, sim::thread_placement::scatter);
        if (measured <= 0 || pred_s <= 0) { continue; }  // unsupported combo
        const double predicted = sim::gcc_seq_seconds(m, p) / pred_s;
        EXPECT_LE(std::abs(predicted - measured), 0.15 * measured)
            << prof->name << " " << sim::kernel_name(k) << " @" << threads
            << "t: measured " << measured << "x, predicted " << predicted
            << "x";
      }
    }
  }
}

// The rows of bench/fig_scalability_advisor: Mach C, 2^30 elements, each
// profile's paper allocation. Every profile but GCC-HPX is memory-bound on
// more than one node at its best point, which only the model side can tell.
TEST(AdvisorModel, VerdictNamesDominantPhaseAndBound) {
  const sim::machine& m = sim::machines::mach_c();
  for (const sim::kernel k : {sim::kernel::for_each, sim::kernel::reduce}) {
    for (const sim::backend_profile* prof : sim::profiles::parallel()) {
      const verdict v = advise_model(m, *prof, params_for(k), m.cores,
                                     sim::paper_alloc_for(*prof));
      EXPECT_EQ(v.source.rfind("model:", 0), 0u) << v.source;
      EXPECT_FALSE(v.curve.empty());
      EXPECT_GE(v.best_threads, 1u);
      EXPECT_GT(v.speedup_at_best, 1.0) << prof->name;
      EXPECT_FALSE(v.bottleneck_phase.empty()) << prof->name;
      EXPECT_NE(v.summary().find("bottleneck: " + v.bottleneck_phase),
                std::string::npos);
      const bound_kind expected = prof->name == "GCC-HPX"
                                      ? bound_kind::compute_bound
                                      : bound_kind::remote_traffic_bound;
      EXPECT_EQ(bound_kind_name(v.bound), bound_kind_name(expected))
          << prof->name << " " << sim::kernel_name(k);
    }
  }
}

TEST(AdvisorModel, UnsupportedKernelReturnsNegative) {
  const sim::machine& m = sim::machines::mach_c();
  for (const sim::backend_profile* prof : sim::profiles::parallel()) {
    for (const sim::kernel k :
         {sim::kernel::for_each, sim::kernel::reduce,
          sim::kernel::inclusive_scan, sim::kernel::find, sim::kernel::sort}) {
      const sim::kernel_params p = params_for(k);
      const double s = predict_seconds(m, *prof, p, 8, sim::paper_alloc_for(*prof),
                                       sim::thread_placement::scatter);
      if (prof->tuning(k).unsupported) {
        EXPECT_LT(s, 0.0) << prof->name;
      } else {
        EXPECT_GT(s, 0.0) << prof->name << " " << sim::kernel_name(k);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Trace side: bound classification over hand-built graphs
// ---------------------------------------------------------------------------

span_graph graph_with(double work_ns, double span_ns, unsigned threads) {
  span_graph g;
  g.work_ns = work_ns;
  g.span_ns = span_ns;
  g.threads_observed = threads;
  g.critical_exec_ns = span_ns;
  return g;
}

TEST(AdvisorTrace, ComputeBoundByDefault) {
  const verdict v = advise(graph_with(1000, 10, 4));
  EXPECT_EQ(v.bound, bound_kind::compute_bound);
  EXPECT_EQ(v.source, "trace");
  EXPECT_DOUBLE_EQ(v.max_speedup, 100.0);
}

TEST(AdvisorTrace, SchedulerBoundWhenQueueWaitsDominate) {
  span_graph g = graph_with(1000, 10, 4);
  g.critical_queue_wait_ns = 400;  // 40 % of the critical wall
  const verdict v = advise(g);
  EXPECT_EQ(v.bound, bound_kind::scheduler_bound);
  EXPECT_GT(v.queue_wait_frac, 0.3);
}

TEST(AdvisorTrace, SpanBoundWhenLookbackWaitsDominate) {
  span_graph g = graph_with(1000, 10, 4);
  g.critical_lookback_wait_ns = 500;
  const verdict v = advise(g);
  EXPECT_EQ(v.bound, bound_kind::span_bound);
  EXPECT_GT(v.lookback_wait_frac, 0.3);
}

TEST(AdvisorTrace, SpanBoundWhenSpeedupTrailsThreadCount) {
  // 8 threads observed but the DAG only supports 1.67x: span-limited.
  const verdict v = advise(graph_with(1000, 600, 8));
  EXPECT_EQ(v.bound, bound_kind::span_bound);
}

TEST(AdvisorTrace, MemoryBoundFromBandwidthHints) {
  advice_hints hints;
  hints.bytes_moved = 80e9;
  hints.wall_s = 1.0;
  hints.peak_bw_gbs = 100.0;  // 80 % of peak achieved
  const verdict v = advise(graph_with(1000, 10, 4), hints);
  EXPECT_EQ(v.bound, bound_kind::memory_bound);
  EXPECT_NEAR(v.achieved_bw_frac, 0.8, 1e-9);
}

TEST(AdvisorTrace, BrentCurveIsMonotoneAndStopsNearAsymptote) {
  const verdict v = advise(graph_with(1e6, 1e4, 8));
  ASSERT_GE(v.curve.size(), 2u);
  for (std::size_t i = 1; i < v.curve.size(); ++i) {
    EXPECT_GE(v.curve[i].speedup, v.curve[i - 1].speedup);
    EXPECT_GT(v.curve[i].threads, v.curve[i - 1].threads);
  }
  EXPECT_GE(v.curve.back().speedup, 0.9 * v.max_speedup);
  EXPECT_GE(v.speedup_at_best, 0.9 * v.max_speedup);
}

TEST(AdvisorTrace, SummaryFormat) {
  verdict v;
  v.speedup_at_best = 9.3;
  v.best_threads = 32;
  v.bottleneck_phase = "scatter";
  v.bound = bound_kind::memory_bound;
  EXPECT_EQ(v.summary(),
            "predicted max speedup 9.3x at 32t; bottleneck: scatter "
            "(memory_bound)");
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(AdvisorJson, ContainsEverySchemaKey) {
  const verdict v = advise(graph_with(1000, 100, 4));
  std::ostringstream os;
  write_json(v, os);
  const std::string json = os.str();
  for (const char* key :
       {"\"source\"", "\"work_s\"", "\"span_s\"", "\"max_speedup\"",
        "\"best_threads\"", "\"speedup_at_best\"", "\"bound\"",
        "\"bottleneck_phase\"", "\"summary\"", "\"detail\"", "\"curve\"",
        "\"waits\"", "\"lookback_frac\"", "\"steal_frac\"", "\"queue_frac\"",
        "\"achieved_bw_frac\"",
        "\"threads_observed\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.substr(json.size() - 2), "}\n");
}

TEST(AdvisorJson, EscapesControlAndNonAsciiInStrings) {
  verdict v;
  v.source = "trace";
  v.bottleneck_phase = std::string("ph\x01se\xff \"quoted\"\\");
  std::ostringstream os;
  write_json(v, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u00ff"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  // No raw control bytes may survive into the document.
  for (const char c : json) {
    const auto u = static_cast<unsigned char>(c);
    EXPECT_TRUE(u >= 0x20 || c == '\n') << static_cast<int>(u);
  }
}

TEST(AdvisorText, MentionsWorkSpanAndVerdict) {
  const verdict v = advise(graph_with(2e6, 1e5, 4));
  std::ostringstream os;
  write_text(v, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("scalability advisor [trace]"), std::string::npos);
  EXPECT_NE(text.find("work  T1"), std::string::npos);
  EXPECT_NE(text.find("span  T-inf"), std::string::npos);
  EXPECT_NE(text.find("verdict"), std::string::npos);
}

}  // namespace
}  // namespace pstlb::trace::analysis

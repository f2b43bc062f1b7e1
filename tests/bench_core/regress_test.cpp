// Statistical comparison engine (bench_core/regress): bootstrap CIs,
// Mann–Whitney, verdicts, and multi-run change-point detection.
#include "bench_core/regress.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

namespace pstlb::bench::regress {
namespace {

results::run_document make_doc(const std::vector<double>& samples,
                               results::provenance from = results::provenance::sim,
                               const std::string& backend = "GCC-TBB") {
  results::run_document doc;
  doc.envelope.suite = "test";
  doc.envelope.git_sha = "sha";
  doc.envelope.hostname = "host-a";
  doc.envelope.topology = "nodes=1 llcs=1 cores=4 cpus=4 page=4096";
  doc.envelope.provider = "sim";
  results::sample_result r;
  r.suite = "test";
  r.kernel = "sort";
  r.backend = backend;
  r.machine = "Mach C";
  r.from = from;
  r.size = 1 << 20;
  r.threads = 8;
  r.samples = samples;
  r.finalize();
  doc.results.push_back(std::move(r));
  return doc;
}

results::run_document scaled(const results::run_document& doc, double factor) {
  results::run_document out = doc;
  for (results::sample_result& r : out.results) {
    for (double& s : r.samples) { s *= factor; }
    r.finalize();
  }
  return out;
}

TEST(Median, Basics) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(BootstrapCi, DegenerateCases) {
  const interval empty = bootstrap_median_ci({}, 0.95, 100, 1);
  EXPECT_EQ(empty.lo, 0.0);
  EXPECT_EQ(empty.hi, 0.0);
  const interval point = bootstrap_median_ci({5.0, 5.0, 5.0}, 0.95, 100, 1);
  EXPECT_EQ(point.lo, 5.0);
  EXPECT_EQ(point.hi, 5.0);
  const interval single = bootstrap_median_ci({2.5}, 0.95, 100, 1);
  EXPECT_EQ(single.lo, 2.5);
  EXPECT_EQ(single.hi, 2.5);
}

TEST(BootstrapCi, Deterministic) {
  const std::vector<double> samples{1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8};
  const interval a = bootstrap_median_ci(samples, 0.95, 500, 42);
  const interval b = bootstrap_median_ci(samples, 0.95, 500, 42);
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_LE(a.lo, median(samples));
  EXPECT_GE(a.hi, median(samples));
}

// Coverage property: a 95% CI on the median of a uniform(0,1) sample should
// contain the true median 0.5 in roughly 95% of draws. Percentile bootstrap
// on n=20 undercovers somewhat, so assert a loose >= 80% — the point is
// catching a broken resampler (coverage near 0), not certifying exactness.
TEST(BootstrapCi, CoversTrueMedian) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  int covered = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> samples(20);
    for (double& s : samples) { s = dist(rng); }
    const interval ci =
        bootstrap_median_ci(samples, 0.95, 400, 1000 + static_cast<std::uint64_t>(t));
    if (ci.lo <= 0.5 && 0.5 <= ci.hi) { ++covered; }
  }
  EXPECT_GE(covered, trials * 8 / 10);
}

TEST(MannWhitney, DetectsShiftAndRespectsNull) {
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 30; ++i) {
    const double jitter = 0.01 * (i % 7);
    a.push_back(1.0 + jitter);
    b.push_back(1.2 + jitter);  // clear 20% shift
  }
  EXPECT_LT(mann_whitney_p(a, b), 0.001);
  EXPECT_EQ(mann_whitney_p(a, a), 1.0);  // every value ties
  EXPECT_EQ(mann_whitney_p({}, a), 1.0);
}

TEST(Compare, IdenticalRunsAreUnchanged) {
  const auto doc = make_doc({1.0, 1.01, 0.99, 1.0, 1.02});
  const report rep = compare(doc, doc, options{});
  EXPECT_EQ(rep.overall, verdict::unchanged);
  ASSERT_EQ(rep.rows.size(), 1u);
  EXPECT_EQ(rep.rows[0].v, verdict::unchanged);
  EXPECT_EQ(rep.rows[0].delta_pct, 0.0);
}

TEST(Compare, DetectsInjectedTenPercentSlowdown) {
  // Deterministic sim-style samples: zero variance, so rank statistics can
  // never reject — the disjoint-CI rule must carry the verdict.
  const auto baseline = make_doc({1.0, 1.0, 1.0, 1.0, 1.0});
  const report rep = compare(baseline, scaled(baseline, 1.10), options{});
  EXPECT_EQ(rep.overall, verdict::regressed);
  ASSERT_EQ(rep.rows.size(), 1u);
  EXPECT_EQ(rep.rows[0].v, verdict::regressed);
  EXPECT_NEAR(rep.rows[0].delta_pct, 10.0, 1e-9);
}

TEST(Compare, DetectsImprovementAndHonorsDirection) {
  const auto baseline = make_doc({1.0, 1.0, 1.0});
  EXPECT_EQ(compare(baseline, scaled(baseline, 0.9), options{}).overall,
            verdict::improved);

  // higher-is-better flips the direction.
  auto hib = make_doc({1.0, 1.0, 1.0});
  hib.results[0].lower_is_better = false;
  auto hib_down = scaled(hib, 0.9);
  EXPECT_EQ(compare(hib, hib_down, options{}).overall, verdict::regressed);
}

TEST(Compare, NoiseThresholdAbsorbsSmallDeltas) {
  const auto baseline = make_doc({1.0, 1.0, 1.0});
  options opt;
  opt.noise_threshold_pct = 2.0;
  EXPECT_EQ(compare(baseline, scaled(baseline, 1.015), opt).overall,
            verdict::unchanged);
  opt.noise_threshold_pct = 0.5;
  EXPECT_EQ(compare(baseline, scaled(baseline, 1.015), opt).overall,
            verdict::regressed);
}

TEST(Compare, EnvelopeHostMismatchHitsOnlyNativeRows) {
  auto baseline = make_doc({1.0, 1.0, 1.0});
  {
    results::sample_result native = baseline.results[0];
    native.backend = "steal";
    native.from = results::provenance::native;
    baseline.results.push_back(native);
  }
  auto candidate = scaled(baseline, 1.10);
  candidate.envelope.hostname = "host-b";  // different machine

  const report rep = compare(baseline, candidate, options{});
  ASSERT_EQ(rep.rows.size(), 2u);
  EXPECT_EQ(rep.rows[0].v, verdict::regressed);     // sim: host-independent
  EXPECT_EQ(rep.rows[1].v, verdict::incomparable);  // native: envelope-bound
  EXPECT_EQ(rep.overall, verdict::regressed);
  EXPECT_FALSE(rep.envelope_notes.empty());
}

TEST(Compare, KnobMismatchMarksEverythingIncomparable) {
  const auto baseline = make_doc({1.0, 1.0, 1.0});
  auto candidate = scaled(baseline, 1.10);
  candidate.envelope.knobs.emplace_back("PSTLB_WATCHDOG_MS", "500");
  const report rep = compare(baseline, candidate, options{});
  EXPECT_EQ(rep.overall, verdict::incomparable);
  ASSERT_EQ(rep.rows.size(), 1u);
  EXPECT_EQ(rep.rows[0].v, verdict::incomparable);
}

TEST(Compare, OneSidedKeysAreIncomparable) {
  const auto baseline = make_doc({1.0}, results::provenance::sim, "GCC-TBB");
  const auto candidate = make_doc({1.0}, results::provenance::sim, "GCC-GNU");
  const report rep = compare(baseline, candidate, options{});
  EXPECT_EQ(rep.overall, verdict::incomparable);
  ASSERT_EQ(rep.rows.size(), 2u);
  EXPECT_EQ(rep.rows[0].note, "only in baseline");
  EXPECT_EQ(rep.rows[1].note, "only in candidate");
}

TEST(Compare, WritersProduceOutput) {
  const auto baseline = make_doc({1.0, 1.0, 1.0});
  const report rep = compare(baseline, scaled(baseline, 1.10), options{});
  std::ostringstream text;
  write_text(rep, text);
  EXPECT_NE(text.str().find("regressed"), std::string::npos);
  std::ostringstream json;
  write_json(rep, json);
  EXPECT_NE(json.str().find("\"overall\":\"regressed\""), std::string::npos);
  EXPECT_NE(json.str().find("\"delta_pct\":"), std::string::npos);
}

TEST(Trend, DetectsStepChange) {
  std::vector<results::run_document> runs;
  std::vector<std::string> labels;
  for (int i = 0; i < 12; ++i) {
    runs.push_back(make_doc({i < 6 ? 1.0 : 1.2}));
    labels.push_back("run" + std::to_string(i));
  }
  const auto series = trend(runs, labels, options{});
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].points.size(), 12u);
  ASSERT_EQ(series[0].changes.size(), 1u);
  EXPECT_EQ(series[0].changes[0].index, 6u);
  EXPECT_NEAR(series[0].changes[0].delta_pct, 20.0, 1e-9);

  std::ostringstream os;
  write_trend_text(series, os);
  EXPECT_NE(os.str().find("run6"), std::string::npos);
}

TEST(Trend, FlatSeriesHasNoChangePoints) {
  std::vector<results::run_document> runs;
  std::vector<std::string> labels;
  for (int i = 0; i < 10; ++i) {
    runs.push_back(make_doc({1.0}));
    labels.push_back(std::to_string(i));
  }
  const auto series = trend(runs, labels, options{});
  ASSERT_EQ(series.size(), 1u);
  EXPECT_TRUE(series[0].changes.empty());
}

TEST(Trend, SmallWiggleBelowThresholdIgnored) {
  std::vector<results::run_document> runs;
  std::vector<std::string> labels;
  for (int i = 0; i < 10; ++i) {
    runs.push_back(make_doc({1.0 + (i % 2 == 0 ? 0.001 : -0.001)}));
    labels.push_back(std::to_string(i));
  }
  const auto series = trend(runs, labels, options{});
  ASSERT_EQ(series.size(), 1u);
  EXPECT_TRUE(series[0].changes.empty());
}

TEST(VerdictName, AllNames) {
  EXPECT_EQ(verdict_name(verdict::unchanged), "unchanged");
  EXPECT_EQ(verdict_name(verdict::improved), "improved");
  EXPECT_EQ(verdict_name(verdict::regressed), "regressed");
  EXPECT_EQ(verdict_name(verdict::incomparable), "incomparable");
}

}  // namespace
}  // namespace pstlb::bench::regress

#include "trace/stats_registry.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "pstlb/pstlb.hpp"

namespace pstlb::stats {
namespace {

/// Every test starts and ends with a clean, disabled registry — the slots
/// are process-global, so leftovers would leak between tests.
class StatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    reset();
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

std::uint64_t calls_of(op o) {
  for (const op_snapshot& s : snapshot()) {
    if (s.o == o) { return s.calls; }
  }
  return 0;
}

TEST_F(StatsTest, DisabledRecordsNothing) {
  { scoped_call call(op::reduce); }
  { scoped_call call(op::sort); }
  EXPECT_TRUE(snapshot().empty());
}

TEST_F(StatsTest, EnableMidScopeDoesNotRecord) {
  // A scoped_call constructed while disabled must stay inert even if stats
  // get switched on before it destructs (it never read the clock).
  {
    scoped_call call(op::reduce);
    set_enabled(true);
  }
  EXPECT_TRUE(snapshot().empty());
}

TEST_F(StatsTest, EnabledCountsEveryOutermostCall) {
  set_enabled(true);
  for (int i = 0; i < 3; ++i) { scoped_call call(op::reduce); }
  { scoped_call call(op::sort); }
  const auto snaps = snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(calls_of(op::reduce), 3u);
  EXPECT_EQ(calls_of(op::sort), 1u);
  // Histogram totals match the call counters.
  for (const op_snapshot& s : snaps) {
    const std::uint64_t hist_sum =
        std::accumulate(s.hist, s.hist + latency_buckets, std::uint64_t{0});
    EXPECT_EQ(hist_sum, s.calls);
    EXPECT_GE(s.max_ns, 0u);
  }
}

TEST_F(StatsTest, NestedCallsRecordOnlyTheOutermostOp) {
  set_enabled(true);
  {
    scoped_call outer(op::sort);
    scoped_call inner(op::merge);  // sort's merge phase: not user-visible
    scoped_call deeper(op::copy);
  }
  EXPECT_EQ(calls_of(op::sort), 1u);
  EXPECT_EQ(calls_of(op::merge), 0u);
  EXPECT_EQ(calls_of(op::copy), 0u);
}

TEST_F(StatsTest, FrontEndCallsLandUnderTheirOpName) {
  set_enabled(true);
  std::vector<double> v(1 << 12, 1.0);
  const double sum = pstlb::reduce(exec::seq, v.begin(), v.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(v.size()));
  pstlb::for_each(exec::seq, v.begin(), v.end(),
                  [](double& x) { x += 1; });
  EXPECT_EQ(calls_of(op::reduce), 1u);
  EXPECT_EQ(calls_of(op::for_each), 1u);
}

TEST_F(StatsTest, QuantilesAreBucketLowerBounds) {
  op_snapshot s;
  s.o = op::reduce;
  s.calls = 100;
  s.hist[4] = 100;  // every call in [16, 32) ns
  EXPECT_DOUBLE_EQ(s.p50_ns(), 16.0);
  EXPECT_DOUBLE_EQ(s.p95_ns(), 16.0);
  EXPECT_DOUBLE_EQ(s.p99_ns(), 16.0);

  op_snapshot split;
  split.o = op::sort;
  split.calls = 100;
  split.hist[3] = 90;   // [8, 16)
  split.hist[10] = 10;  // [1024, 2048)
  EXPECT_DOUBLE_EQ(split.p50_ns(), 8.0);
  EXPECT_DOUBLE_EQ(split.p95_ns(), 1024.0);

  const op_snapshot empty;
  EXPECT_DOUBLE_EQ(empty.p50_ns(), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_ns(), 0.0);
}

TEST_F(StatsTest, ResetClearsAllSlots) {
  set_enabled(true);
  { scoped_call call(op::reduce); }
  ASSERT_FALSE(snapshot().empty());
  reset();
  EXPECT_TRUE(snapshot().empty());
}

TEST_F(StatsTest, JsonShape) {
  set_enabled(true);
  { scoped_call call(op::reduce); }
  std::ostringstream os;
  write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"envelope\":{", 0), 0u);
  EXPECT_NE(json.find("\"ops\":["), std::string::npos);
  EXPECT_NE(json.find("\"knobs\":{"), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"reduce\""), std::string::npos);
  EXPECT_NE(json.find("\"calls\":1"), std::string::npos);
  for (const char* key : {"\"total_ns\":", "\"max_ns\":", "\"p50_ns\":",
                          "\"p95_ns\":", "\"p99_ns\":", "\"hist\":["}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST_F(StatsTest, PrometheusExposition) {
  set_enabled(true);
  { scoped_call call(op::reduce); }
  std::ostringstream os;
  write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE pstlb_calls_total counter"), std::string::npos);
  EXPECT_NE(text.find("pstlb_calls_total{op=\"reduce\"} 1"), std::string::npos);
  EXPECT_NE(text.find("pstlb_latency_ns{op=\"reduce\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pstlb_latency_ns_count{op=\"reduce\"} 1"),
            std::string::npos);
}

TEST_F(StatsTest, SignalSafeDumpWritesOneLinePerLiveOp) {
  set_enabled(true);
  { scoped_call call(op::reduce); }
  { scoped_call call(op::sort); }
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  signal_safe_dump(fds[1]);
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  EXPECT_NE(text.find("pstlb_stats op=reduce calls=1"), std::string::npos);
  EXPECT_NE(text.find("pstlb_stats op=sort calls=1"), std::string::npos);
}

TEST_F(StatsTest, DumpToEnvFileSelectsFormatByExtension) {
  set_enabled(true);
  { scoped_call call(op::reduce); }

  ::unsetenv("PSTLB_STATS_FILE");
  EXPECT_FALSE(dump_to_env_file());

  const std::string json_path = ::testing::TempDir() + "pstlb_stats_test.json";
  ::setenv("PSTLB_STATS_FILE", json_path.c_str(), 1);
  ASSERT_TRUE(dump_to_env_file());
  {
    std::ifstream in(json_path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("\"ops\""), std::string::npos);
  }

  const std::string prom_path = ::testing::TempDir() + "pstlb_stats_test.prom";
  ::setenv("PSTLB_STATS_FILE", prom_path.c_str(), 1);
  ASSERT_TRUE(dump_to_env_file());
  {
    std::ifstream in(prom_path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("# TYPE pstlb_calls_total"), std::string::npos);
  }
  ::unsetenv("PSTLB_STATS_FILE");
}

TEST_F(StatsTest, OpNamesCoverTheWholeEnum) {
  for (std::size_t i = 0; i < op_count; ++i) {
    const std::string_view name = op_name(static_cast<op>(i));
    EXPECT_FALSE(name.empty()) << i;
    EXPECT_NE(name, "unknown") << i;
  }
}

}  // namespace
}  // namespace pstlb::stats

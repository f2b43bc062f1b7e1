#include "trace/analysis/trace_reader.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "backends/backend_registry.hpp"
#include "pstlb/pstlb.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

namespace pstlb::trace::analysis {
namespace {

void run_kernels(pstlb::backends::backend_id id) {
  exec::policy pol = exec::make_policy(id, 4);
  pol.seq_threshold = 0;
  std::vector<double> data(std::size_t{1} << 14, 1.0);
  pstlb::for_each(pol, data.begin(), data.end(), [](double& v) { v += 1; });
  (void)pstlb::reduce(pol, data.begin(), data.end(), 0.0);
  std::vector<double> out(data.size());
  pstlb::inclusive_scan(pol, data.begin(), data.end(), out.begin());
}

/// Stable copy of every ring, taken while tracing is off: the exporter must
/// reproduce exactly these events.
void snapshot_rings(std::vector<event>& events, std::vector<std::uint32_t>& tids) {
  for (event_ring* ring : registry::instance().rings()) {
    for (const event& e : ring->snapshot()) {
      events.push_back(e);
      tids.push_back(ring->id());
    }
  }
}

// The acceptance bar: a capture spanning EVERY parallel backend (fork-join,
// OMP-static, OMP-dynamic, work-stealing, task-futures — chunk spans, splits,
// steals, spawns, scan lookback tickets) must round-trip through the
// Chrome-trace JSON with zero unparsed elements and bit-identical events.
TEST(TraceReader, RoundTripsEveryBackendWithZeroUnparsed) {
  set_enabled(true);
  for (pstlb::backends::backend_id id : pstlb::backends::parallel_backends()) {
    run_kernels(id);
  }
  // A sort adds phase spans from the samplesort/mergesort pipeline.
  {
    exec::steal_policy pol{4};
    pol.seq_threshold = 0;
    std::vector<int> keys(std::size_t{1} << 14);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<int>((i * 2654435761u) & 0xFFFF);
    }
    pstlb::sort(pol, keys.begin(), keys.end());
  }
  set_enabled(false);

  std::vector<event> expected;
  std::vector<std::uint32_t> expected_tids;
  snapshot_rings(expected, expected_tids);
  ASSERT_FALSE(expected.empty());

  // Pool workers spawned by the kernels above may still be starting and
  // register their rings around the export; bracket the count.
  const std::size_t rings_before = registry::instance().rings().size();
  std::ostringstream os;
  write_chrome_trace(os);
  const parsed_trace parsed = parse_chrome_trace(os.str());

  EXPECT_EQ(parsed.unparsed, 0u) << "every element we export must map back";
  EXPECT_GT(parsed.total_objects, expected.size());  // + thread_name metas
  ASSERT_EQ(parsed.events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(parsed.events[i].begin_ns, expected[i].begin_ns) << i;
    EXPECT_EQ(parsed.events[i].end_ns, expected[i].end_ns) << i;
    EXPECT_EQ(parsed.events[i].arg, expected[i].arg) << i;
    EXPECT_EQ(parsed.events[i].link, expected[i].link) << i;
    EXPECT_EQ(parsed.events[i].kind, expected[i].kind) << i;
    EXPECT_EQ(parsed.events[i].pool, expected[i].pool) << i;
    EXPECT_EQ(parsed.tids[i], expected_tids[i]) << i;
  }
  // Every ring got its thread_name meta event.
  EXPECT_GE(parsed.thread_names.size(), rings_before);
  EXPECT_LE(parsed.thread_names.size(), registry::instance().rings().size());
}

TEST(TraceReader, MalformedJsonThrows) {
  EXPECT_THROW(parse_chrome_trace("not json at all"), std::runtime_error);
  EXPECT_THROW(parse_chrome_trace("{\"traceEvents\":["), std::runtime_error);
  EXPECT_THROW(parse_chrome_trace("{\"traceEvents\":[{\"name\":}]}"),
               std::runtime_error);
  EXPECT_THROW(parse_chrome_trace(""), std::runtime_error);
}

TEST(TraceReader, UnknownButWellFormedEventsOnlyBumpUnparsed) {
  const parsed_trace parsed = parse_chrome_trace(
      "{\"traceEvents\":[{\"name\":\"mystery\",\"ph\":\"Z\",\"pid\":1,"
      "\"tid\":7,\"ts\":0}]}");
  EXPECT_EQ(parsed.total_objects, 1u);
  EXPECT_EQ(parsed.unparsed, 1u);
  EXPECT_TRUE(parsed.events.empty());
}

// Satellite regression: hostile thread labels (control bytes, non-ASCII,
// quotes, backslashes) must export as valid JSON — \u00XX, never raw bytes —
// and parse back without error.
TEST(TraceReader, HostileThreadLabelsEscapeAndRoundTrip) {
  set_enabled(true);
  record_span(pool_id::fork_join, event_kind::chunk, span_begin(), 1);
  set_enabled(false);
  local_ring().set_label(std::string("evil\x01\x1f\xff \"quoted\"\\slash\n"));

  std::ostringstream os;
  write_chrome_trace(os);
  const std::string json = os.str();
  // The raw control/non-ASCII bytes must not appear in the document.
  for (const char c : json) {
    const auto u = static_cast<unsigned char>(c);
    EXPECT_TRUE((u >= 0x20 && u < 0x7F) || c == '\n') << static_cast<int>(u);
  }
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
  EXPECT_NE(json.find("\\u00ff"), std::string::npos);

  const parsed_trace parsed = parse_chrome_trace(json);
  EXPECT_EQ(parsed.unparsed, 0u);
  bool found = false;
  for (const auto& [tid, name] : parsed.thread_names) {
    if (name.find("evil") != std::string::npos &&
        name.find("\"quoted\"") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "escaped label must decode back to readable text";

  local_ring().set_label("");  // do not leak the hostile label to other tests
}

TEST(TraceReader, CounterSeriesRoundTrip) {
  set_enabled(true);
  record_counter_sample("perf/ipc", 1.5);
  record_counter_sample("perf/ipc", 2.25);
  set_enabled(false);

  std::ostringstream os;
  write_chrome_trace(os);
  const parsed_trace parsed = parse_chrome_trace(os.str());
  EXPECT_EQ(parsed.unparsed, 0u);
  auto it = parsed.counters.find("perf/ipc");
  ASSERT_NE(it, parsed.counters.end());
  ASSERT_GE(it->second.size(), 2u);
  EXPECT_NEAR(it->second[it->second.size() - 2].value, 1.5, 1e-3);
  EXPECT_NEAR(it->second.back().value, 2.25, 1e-3);
}

}  // namespace
}  // namespace pstlb::trace::analysis

#include "trace/analysis/span_graph.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pstlb/pstlb.hpp"
#include "trace/trace.hpp"

namespace pstlb::trace::analysis {
namespace {

/// Builds synthetic (event, tid) streams so each graph pass can be exercised
/// with exact expectations: hand-picked timestamps make work/span/gap values
/// round numbers.
struct trace_builder {
  std::vector<event> events;
  std::vector<std::uint32_t> tids;

  void span(std::uint32_t tid, event_kind k, pool_id p, std::uint64_t b,
            std::uint64_t e, std::uint64_t link = 0, std::uint64_t arg = 0) {
    events.push_back({b, e, arg, link, k, p});
    tids.push_back(tid);
  }
  void instant(std::uint32_t tid, event_kind k, pool_id p, std::uint64_t ts,
               std::uint64_t link = 0, std::uint64_t arg = 0) {
    span(tid, k, p, ts, ts, link, arg);
  }
  span_graph build() const { return build_span_graph(events, tids); }
};

std::size_t count_edges(const span_graph& g, edge_kind k) {
  std::size_t n = 0;
  for (const span_edge& e : g.edges) {
    if (e.kind == k) { ++n; }
  }
  return n;
}

std::size_t count_nodes(const span_graph& g, node_kind k) {
  std::size_t n = 0;
  for (const span_node& node : g.nodes) {
    if (node.kind == k) { ++n; }
  }
  return n;
}

const span_edge* find_edge(const span_graph& g, edge_kind k) {
  for (const span_edge& e : g.edges) {
    if (e.kind == k) { return &e; }
  }
  return nullptr;
}

TEST(SpanGraph, EmptyInputYieldsEmptyGraph) {
  const span_graph g = build_span_graph({}, {});
  EXPECT_TRUE(g.nodes.empty());
  EXPECT_TRUE(g.edges.empty());
  EXPECT_EQ(g.work_ns, 0.0);
  EXPECT_EQ(g.span_ns, 0.0);
  EXPECT_DOUBLE_EQ(g.max_speedup(), 1.0);
  EXPECT_DOUBLE_EQ(g.predicted_speedup(64), 1.0);
  EXPECT_EQ(g.dominant_phase(), "");
  EXPECT_EQ(g.threads_observed, 0u);
}

TEST(SpanGraph, BrentBoundMath) {
  span_graph g;
  g.work_ns = 1000;
  g.span_ns = 100;
  EXPECT_DOUBLE_EQ(g.predicted_speedup(1), 1000.0 / 1100.0);
  EXPECT_DOUBLE_EQ(g.predicted_speedup(8), 1000.0 / (125.0 + 100.0));
  EXPECT_DOUBLE_EQ(g.max_speedup(), 10.0);
  // P < 1 clamps to the serial point.
  EXPECT_DOUBLE_EQ(g.predicted_speedup(0), g.predicted_speedup(1));
}

TEST(SpanGraph, IndependentChunksSpanIsLongestNode) {
  trace_builder tb;
  // tid 0 runs two chunks back to back (schedule order, not causal); tid 1
  // one longer chunk. No links anywhere -> no causal edges.
  tb.span(0, event_kind::chunk, pool_id::fork_join, 0, 100);
  tb.span(0, event_kind::chunk, pool_id::fork_join, 100, 250);
  tb.span(1, event_kind::chunk, pool_id::fork_join, 0, 400);
  const span_graph g = tb.build();

  ASSERT_EQ(g.nodes.size(), 3u);
  EXPECT_DOUBLE_EQ(g.work_ns, 650.0);
  // Continuation edges exist (same-thread order) but are span-excluded: the
  // longest causal chain is the single 400 ns chunk.
  EXPECT_EQ(count_edges(g, edge_kind::continuation), 1u);
  EXPECT_DOUBLE_EQ(g.span_ns, 400.0);
  EXPECT_EQ(g.threads_observed, 2u);
  EXPECT_EQ(g.dominant_phase(), "loop");
  EXPECT_EQ(g.first_ns, 0u);
  EXPECT_EQ(g.last_ns, 400u);
}

TEST(SpanGraph, StealEdgeLinksSplitToThiefChunk) {
  const std::uint64_t range = link_range(5, 10);
  trace_builder tb;
  // Victim (tid 0): one chunk, then sheds [5,10) 50 ns after finishing it.
  tb.span(0, event_kind::chunk, pool_id::steal, 0, 100, link_task(0));
  tb.instant(0, event_kind::split, pool_id::steal, 150, range);
  // Thief (tid 1): steals the exact range, runs chunk 5 100 ns later.
  tb.instant(1, event_kind::steal_ok, pool_id::steal, 200, range, /*victim=*/0);
  tb.span(1, event_kind::chunk, pool_id::steal, 300, 400, link_task(5));
  const span_graph g = tb.build();

  EXPECT_EQ(g.steals, 1u);
  EXPECT_EQ(g.splits, 1u);
  EXPECT_EQ(count_nodes(g, node_kind::split_point), 1u);
  const span_edge* steal = find_edge(g, edge_kind::steal);
  ASSERT_NE(steal, nullptr);
  EXPECT_EQ(g.nodes[steal->from].kind, node_kind::split_point);
  EXPECT_EQ(g.nodes[steal->to].begin_ns, 300u);

  // Causal chain: victim chunk (100) -> split (0) -> thief chunk (100).
  EXPECT_DOUBLE_EQ(g.span_ns, 200.0);
  EXPECT_DOUBLE_EQ(g.work_ns, 200.0);
  // Gap attribution on the critical path: 50 ns victim->split (queue wait,
  // segment edge), 150 ns split@150 -> thief@300 (steal latency).
  EXPECT_DOUBLE_EQ(g.critical_steal_wait_ns, 150.0);
  EXPECT_DOUBLE_EQ(g.critical_queue_wait_ns, 50.0);
  EXPECT_DOUBLE_EQ(g.critical_exec_ns, 200.0);
  ASSERT_EQ(g.critical_path.size(), 3u);
  EXPECT_EQ(g.critical_path.back().via, edge_kind::steal);
}

TEST(SpanGraph, DecoupledScanSplitsChunkAroundLookback) {
  trace_builder tb;
  // Chunk 0 (tid 0): fast path, publishes its prefix at chunk end.
  tb.span(0, event_kind::chunk, pool_id::scan, 0, 100, link_task(0));
  // Chunk 1 (tid 1): decoupled — a lookback span [60,120] nests inside the
  // chunk [50,200], so the node splits into reduce [50,60], publish @120,
  // scan [120,200].
  tb.span(1, event_kind::chunk, pool_id::scan, 50, 200, link_task(1));
  tb.span(1, event_kind::lookback, pool_id::scan, 60, 120, link_task(1));
  const span_graph g = tb.build();

  EXPECT_EQ(count_nodes(g, node_kind::scan_reduce), 1u);
  EXPECT_EQ(count_nodes(g, node_kind::scan_scan), 1u);
  EXPECT_EQ(count_nodes(g, node_kind::publish), 2u);
  EXPECT_EQ(count_nodes(g, node_kind::chunk), 1u);  // the fast-path chunk

  // Lookback chain: publish(0) @100 -> publish(1) @120 (the resume point).
  const span_edge* lb = find_edge(g, edge_kind::lookback_chain);
  ASSERT_NE(lb, nullptr);
  EXPECT_EQ(g.nodes[lb->from].end_ns, 100u);
  EXPECT_EQ(g.nodes[lb->to].kind, node_kind::publish);
  EXPECT_EQ(g.nodes[lb->to].begin_ns, 120u);

  // Work: chunk0 (100) + reduce (10) + scan (80). Span: the cross-chunk
  // chain chunk0 -> publish0 -> publish1 -> scan1 = 100 + 80 = 180, longer
  // than chunk 1's own reduce+scan (90).
  EXPECT_DOUBLE_EQ(g.work_ns, 190.0);
  EXPECT_DOUBLE_EQ(g.span_ns, 180.0);
  // The 20 ns publish0->publish1 gap is the lookback wait.
  EXPECT_DOUBLE_EQ(g.critical_lookback_wait_ns, 20.0);
  EXPECT_EQ(g.dominant_phase(), "scan");
}

TEST(SpanGraph, FastPathScanChainsPublishToNextChunkStart) {
  trace_builder tb;
  // Both chunks take the fast path (no lookback span): chunk c's consumer
  // point is its own start.
  tb.span(0, event_kind::chunk, pool_id::scan, 0, 100, link_task(0));
  tb.span(1, event_kind::chunk, pool_id::scan, 110, 200, link_task(1));
  const span_graph g = tb.build();

  const span_edge* lb = find_edge(g, edge_kind::lookback_chain);
  ASSERT_NE(lb, nullptr);
  EXPECT_EQ(g.nodes[lb->to].kind, node_kind::chunk);
  EXPECT_EQ(g.nodes[lb->to].begin_ns, 110u);
  // chunk0 (100) -> publish0 -> chunk1 (90).
  EXPECT_DOUBLE_EQ(g.span_ns, 190.0);
  EXPECT_DOUBLE_EQ(g.critical_lookback_wait_ns, 10.0);
}

TEST(SpanGraph, LookbackResolvedFromAggregatesGetsNoEdge) {
  trace_builder tb;
  // Chunk 1 resumes at 50, but task 0's prefix publish only lands at 5000
  // (far past the match tolerance): chunk 1 cannot have waited on it — it
  // terminated on aggregates alone, so no lookback edge.
  tb.span(0, event_kind::chunk, pool_id::scan, 4000, 5000, link_task(0));
  tb.span(1, event_kind::chunk, pool_id::scan, 10, 50, link_task(1));
  const span_graph g = tb.build();
  EXPECT_EQ(count_edges(g, edge_kind::lookback_chain), 0u);
}

TEST(SpanGraph, SpawnChainAndSpawnToChunkEdges) {
  trace_builder tb;
  for (std::uint64_t i = 0; i < 3; ++i) {
    tb.instant(0, event_kind::spawn, pool_id::task_queue, 10 * i, link_task(i));
    tb.span(static_cast<std::uint32_t>(1 + i), event_kind::chunk,
            pool_id::task_queue, 100, 200, link_task(i));
  }
  const span_graph g = tb.build();

  EXPECT_EQ(g.spawns, 3u);
  EXPECT_EQ(count_nodes(g, node_kind::spawn_point), 3u);
  // The submitter's serial enqueue chain: 2 segment edges between the three
  // spawn points, plus one spawn edge into each chunk.
  EXPECT_EQ(count_edges(g, edge_kind::spawn), 3u);
  std::size_t chain = 0;
  for (const span_edge& e : g.edges) {
    if (e.kind == edge_kind::segment &&
        g.nodes[e.from].kind == node_kind::spawn_point) {
      ++chain;
    }
  }
  EXPECT_EQ(chain, 2u);
}

TEST(SpanGraph, SpawnMatchesOnlyForwardInTimeChunks) {
  trace_builder tb;
  // Task index 7 appears twice (ring reuse across regions). The spawn at
  // t=5000 must bind to the later execution, never the earlier one.
  tb.span(1, event_kind::chunk, pool_id::task_queue, 100, 200, link_task(7));
  tb.instant(0, event_kind::spawn, pool_id::task_queue, 5000, link_task(7));
  tb.span(2, event_kind::chunk, pool_id::task_queue, 6000, 6100, link_task(7));
  const span_graph g = tb.build();

  const span_edge* spawn = find_edge(g, edge_kind::spawn);
  ASSERT_NE(spawn, nullptr);
  EXPECT_EQ(count_edges(g, edge_kind::spawn), 1u);
  EXPECT_EQ(g.nodes[spawn->to].begin_ns, 6000u);
}

TEST(SpanGraph, PhaseSpansLabelOverlappingChunks) {
  trace_builder tb;
  tb.span(0, event_kind::phase, pool_id::sort, 0, 100, 0, /*ordinal=*/0);
  tb.span(0, event_kind::phase, pool_id::sort, 100, 200, 0, 2);
  tb.span(0, event_kind::phase, pool_id::sort, 200, 300, 0, 7);
  tb.span(1, event_kind::chunk, pool_id::fork_join, 10, 60);    // mid 35
  tb.span(1, event_kind::chunk, pool_id::fork_join, 120, 180);  // mid 150
  tb.span(1, event_kind::chunk, pool_id::fork_join, 210, 290);  // mid 250
  tb.span(1, event_kind::chunk, pool_id::fork_join, 400, 500);  // outside
  const span_graph g = tb.build();

  std::vector<std::string> labels;
  for (const span_node& n : g.nodes) {
    if (n.is_work()) { labels.push_back(n.phase); }
  }
  ASSERT_EQ(labels.size(), 4u);
  EXPECT_EQ(labels[0], "sample");
  EXPECT_EQ(labels[1], "scatter");
  EXPECT_EQ(labels[2], "phase7");
  EXPECT_EQ(labels[3], "loop");
}

TEST(SpanGraph, IdleSpansAccumulateButAreNotNodes) {
  trace_builder tb;
  tb.span(0, event_kind::idle, pool_id::steal, 0, 500);
  tb.span(0, event_kind::idle, pool_id::steal, 600, 700);
  const span_graph g = tb.build();
  EXPECT_TRUE(g.nodes.empty());
  EXPECT_DOUBLE_EQ(g.idle_ns_total, 600.0);
}

TEST(SpanGraph, PhaseAttributionSumsMatchTotals) {
  trace_builder tb;
  tb.span(0, event_kind::chunk, pool_id::scan, 0, 100, link_task(0));
  tb.span(1, event_kind::chunk, pool_id::fork_join, 0, 300);
  const span_graph g = tb.build();
  double phase_work = 0;
  for (const phase_share& s : g.phases) { phase_work += s.work_ns; }
  EXPECT_DOUBLE_EQ(phase_work, g.work_ns);
  // Critical-share descending: the 300 ns "loop" chunk dominates.
  ASSERT_FALSE(g.phases.empty());
  EXPECT_EQ(g.phases.front().label, "loop");
}

// Live capture: a real steal-pool region plus a decoupled scan must produce
// a non-trivial graph whose invariants (span <= work, speedup curve
// monotone) hold on events we did not hand-craft.
TEST(SpanGraph, LiveCaptureFromStealBackendHoldsInvariants) {
  set_enabled(true);
  {
    exec::steal_policy pol{4};
    pol.seq_threshold = 0;
    std::vector<double> data(std::size_t{1} << 16, 1.0);
    pstlb::for_each(pol, data.begin(), data.end(), [](double& v) { v += 1; });
    std::vector<double> out(data.size());
    pstlb::inclusive_scan(pol, data.begin(), data.end(), out.begin());
  }
  set_enabled(false);

  std::vector<event> events;
  std::vector<std::uint32_t> tids;
  for (event_ring* ring : registry::instance().rings()) {
    for (const event& e : ring->snapshot()) {
      events.push_back(e);
      tids.push_back(ring->id());
    }
  }
  ASSERT_FALSE(events.empty());
  const span_graph g = build_span_graph(events, tids);
  EXPECT_GT(g.work_ns, 0.0);
  EXPECT_GT(g.span_ns, 0.0);
  EXPECT_LE(g.span_ns, g.work_ns + 1e-9);
  EXPECT_GE(g.threads_observed, 1u);
  EXPECT_GE(g.max_speedup(), 1.0);
  double prev = 0;
  for (double p = 1; p <= 256; p *= 2) {
    const double s = g.predicted_speedup(p);
    EXPECT_GE(s, prev);
    prev = s;
  }
}

}  // namespace
}  // namespace pstlb::trace::analysis

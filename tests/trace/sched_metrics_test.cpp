#include "trace/sched_metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "backends/backend.hpp"
#include "counters/counters.hpp"
#include "pstlb/pstlb.hpp"
#include "sched/steal_pool.hpp"
#include "trace/trace.hpp"

namespace pstlb::trace {
namespace {

class TracedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    before_ = collect();
  }
  void TearDown() override { set_enabled(false); }
  sched_metrics window() const { return delta(before_, collect()); }

  sched_metrics before_;
};

// Satellite regression: forced imbalance (one fat chunk) must produce at
// least one steal attempt; a perfectly static fork-join run must produce
// exactly zero.
TEST_F(TracedTest, StealPoolReportsStealsUnderForcedImbalance) {
  sched::steal_pool& pool = sched::steal_pool::global();
  sched::loop_context ctx;
  ctx.n = 8;
  ctx.grain = 1;  // 8 chunks; chunk 0 is deliberately fat
  ctx.run = [](void*, index_t b, index_t, unsigned) {
    if (b == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  };
  pool.run(4, ctx);
  const sched_metrics w = window();
  EXPECT_GE(w.steals_ok() + w.steals_failed(), 1u)
      << "a 50ms fat chunk must leave the other participants stealing";
  EXPECT_EQ(w.chunks(), 8u);
  EXPECT_GT(w.idle_s(), 0.0) << "threads starved behind the fat chunk";
}

TEST_F(TracedTest, StaticForkJoinRunHasZeroSteals) {
  const backends::backend be = backends::fork_join_backend(4);
  std::vector<double> data(1 << 14, 1.0);
  be.for_blocks(static_cast<index_t>(data.size()), 1 << 10, nullptr,
                [&](index_t b, index_t e, unsigned) {
                  for (index_t i = b; i < e; ++i) {
                    data[static_cast<std::size_t>(i)] += 1.0;
                  }
                });
  const sched_metrics w = window();
  EXPECT_EQ(w.steals_ok(), 0u);
  EXPECT_EQ(w.steals_failed(), 0u);
  EXPECT_EQ(w.tasks_spawned(), 0u);
  EXPECT_EQ(w.range_splits(), 0u);
  EXPECT_EQ(w.chunks(), 16u);  // 4 slices x 4 grain-blocks
}

TEST_F(TracedTest, FuturesBackendSpawnsOneTaskPerChunk) {
  exec::task_policy policy{4};
  policy.grain = 1 << 12;  // 2^16 / 2^12 = 16 chunks
  std::vector<elem_t> data(1 << 16, elem_t{1});
  pstlb::for_each(policy, data.begin(), data.end(), [](elem_t& v) { v += 1; });
  const sched_metrics w = window();
  EXPECT_EQ(w.tasks_spawned(), 16u);
  EXPECT_EQ(w.chunks(), 16u);
  EXPECT_EQ(w.chunk_elems(), std::uint64_t{1} << 16);
  EXPECT_EQ(w.steals_ok() + w.steals_failed(), 0u);
}

TEST_F(TracedTest, StealBackendSplitsRangesInsteadOfSpawning) {
  exec::steal_policy policy{4};
  policy.grain = 1 << 10;
  std::vector<elem_t> data(1 << 15, elem_t{1});
  pstlb::for_each(policy, data.begin(), data.end(), [](elem_t& v) { v += 1; });
  const sched_metrics w = window();
  EXPECT_EQ(w.tasks_spawned(), 0u);
  EXPECT_GE(w.range_splits(), 1u);
  EXPECT_EQ(w.chunks(), 32u);
  EXPECT_EQ(w.chunk_elems(), std::uint64_t{1} << 15);
}

TEST_F(TracedTest, RegionCapturesSchedDelta) {
  counters::marker_registry::instance().reset();
  const backends::backend be = backends::fork_join_backend(4);
  std::vector<double> data(1 << 14, 1.0);
  {
    counters::region r("traced-region");
    be.for_blocks(static_cast<index_t>(data.size()), 1 << 12, nullptr,
                  [&](index_t b, index_t e, unsigned) {
                    for (index_t i = b; i < e; ++i) {
                      data[static_cast<std::size_t>(i)] += 1.0;
                    }
                  });
  }
  const auto stats = counters::marker_registry::instance().snapshot();
  const auto it = stats.find("traced-region");
  ASSERT_NE(it, stats.end());
  EXPECT_DOUBLE_EQ(it->second.total.sched_chunks, 4.0);  // 4 slices, 1 block each
  EXPECT_DOUBLE_EQ(it->second.total.sched_steals_ok, 0.0);
  EXPECT_DOUBLE_EQ(it->second.total.sched_tasks_spawned, 0.0);
}

TEST(SchedMetricsMath, PercentilesFromHistogram) {
  sched_metrics m;
  m.chunk_hist[10] = 90;  // 90 chunks of ~2^10
  m.chunk_hist[15] = 10;  // 10 chunks of ~2^15
  EXPECT_DOUBLE_EQ(m.chunk_size_p50(), 1024.0);
  EXPECT_DOUBLE_EQ(m.chunk_size_p95(), 32768.0);
  sched_metrics empty;
  EXPECT_DOUBLE_EQ(empty.chunk_size_p50(), 0.0);
  EXPECT_DOUBLE_EQ(empty.chunk_size_p95(), 0.0);
}

TEST(SchedMetricsMath, LoadImbalanceAndBusyFraction) {
  sched_metrics m;
  thread_metrics a;
  a.ring_id = 0;
  a.busy_s = 3.0;
  a.idle_s = 1.0;
  thread_metrics b;
  b.ring_id = 1;
  b.busy_s = 1.0;
  b.idle_s = 3.0;
  m.threads = {a, b};
  EXPECT_DOUBLE_EQ(m.load_imbalance(), 1.5);  // max 3 / mean 2
  EXPECT_DOUBLE_EQ(m.threads[0].busy_fraction(), 0.75);
  EXPECT_DOUBLE_EQ(m.threads[1].busy_fraction(), 0.25);
  sched_metrics idle_only;
  EXPECT_DOUBLE_EQ(idle_only.load_imbalance(), 0.0);
}

TEST(SchedMetricsMath, DeltaIsSaturatingAndKeepsNewThreads) {
  sched_metrics before;
  thread_metrics t0;
  t0.ring_id = 0;
  t0.chunks = 10;
  before.threads = {t0};
  before.chunk_hist[4] = 10;

  sched_metrics after;
  thread_metrics t0b = t0;
  t0b.chunks = 25;
  thread_metrics t1;
  t1.ring_id = 1;
  t1.chunks = 7;
  after.threads = {t0b, t1};
  after.chunk_hist[4] = 22;

  const sched_metrics d = delta(before, after);
  ASSERT_EQ(d.threads.size(), 2u);
  EXPECT_EQ(d.threads[0].chunks, 15u);
  EXPECT_EQ(d.threads[1].chunks, 7u);
  EXPECT_EQ(d.chunk_hist[4], 12u);

  // Saturation: a window that straddles a counter reset never underflows.
  const sched_metrics inverse = delta(after, before);
  EXPECT_EQ(inverse.threads[0].chunks, 0u);
}

// An empty window (back-to-back snapshots, no scheduler activity between
// them) must be all zeros with every derived statistic still well-defined.
TEST_F(TracedTest, EmptyWindowIsZeroWithDefinedDerivedStats) {
  const sched_metrics w = window();
  EXPECT_EQ(w.chunks(), 0u);
  EXPECT_EQ(w.chunk_elems(), 0u);
  EXPECT_EQ(w.steals_ok(), 0u);
  EXPECT_EQ(w.steals_failed(), 0u);
  EXPECT_EQ(w.tasks_spawned(), 0u);
  EXPECT_EQ(w.range_splits(), 0u);
  EXPECT_DOUBLE_EQ(w.busy_s(), 0.0);
  EXPECT_DOUBLE_EQ(w.idle_s(), 0.0);
  EXPECT_DOUBLE_EQ(w.chunk_size_p50(), 0.0);
  EXPECT_DOUBLE_EQ(w.chunk_size_p95(), 0.0);
  EXPECT_DOUBLE_EQ(w.load_imbalance(), 0.0);
}

// A single instant event mid-window must be accounted exactly — no other
// counter may move.
TEST_F(TracedTest, SingleEventWindowCountsExactlyOnce) {
  count_steal(pool_id::steal, /*ok=*/true, /*victim=*/2);
  const sched_metrics w = window();
  EXPECT_EQ(w.steals_ok(), 1u);
  EXPECT_EQ(w.steals_failed(), 0u);
  EXPECT_EQ(w.chunks(), 0u);
  EXPECT_EQ(w.tasks_spawned(), 0u);
  EXPECT_EQ(w.range_splits(), 0u);
}

// sched_metrics reads the monotonic ring COUNTERS, not the ring events: a
// window that overwrites the event ring many times over must still count
// every chunk exactly, while the event ring itself retains only the last
// `capacity()` events.
TEST_F(TracedTest, RingOverwriteMidWindowDoesNotClipCounters) {
  event_ring& ring = local_ring();
  const std::uint64_t pushed_before = ring.pushed();
  const std::size_t n = ring.capacity() + ring.capacity() / 2;
  for (std::size_t i = 0; i < n; ++i) {
    record_span(pool_id::fork_join, event_kind::chunk, span_begin(),
                /*elems=*/16);
  }
  const sched_metrics w = window();
  EXPECT_EQ(w.chunks(), n);
  EXPECT_EQ(w.chunk_elems(), n * 16u);
  // All 16-element chunks land in log2 bucket 4: the histogram is counter-
  // backed too, so wraparound cannot clip it either.
  EXPECT_EQ(w.chunk_hist[4], n);
  EXPECT_DOUBLE_EQ(w.chunk_size_p50(), 16.0);
  // The event ring, by contrast, did overwrite: it retains at most
  // capacity() events even though we pushed 1.5x that many.
  EXPECT_EQ(ring.pushed() - pushed_before, n);
  EXPECT_LE(ring.snapshot().size(), ring.capacity());
}

}  // namespace
}  // namespace pstlb::trace

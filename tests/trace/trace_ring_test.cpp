#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace pstlb::trace {
namespace {

event make_event(std::uint64_t arg) {
  event e;
  e.begin_ns = arg;
  e.end_ns = arg + 1;
  e.arg = arg;
  e.kind = event_kind::chunk;
  e.pool = pool_id::steal;
  return e;
}

TEST(EventRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(event_ring(8).capacity(), 8u);
  EXPECT_EQ(event_ring(10).capacity(), 16u);
  EXPECT_EQ(event_ring(1).capacity(), 8u);  // floor
  EXPECT_EQ(event_ring(4096).capacity(), 4096u);
}

TEST(EventRing, EmptySnapshot) {
  event_ring ring(16);
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_EQ(ring.pushed(), 0u);
}

TEST(EventRing, RetainsAllWhenUnderCapacity) {
  event_ring ring(16);
  for (std::uint64_t i = 0; i < 10; ++i) { ring.push(make_event(i)); }
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(events[i].arg, i);  // oldest first
    EXPECT_EQ(events[i].kind, event_kind::chunk);
    EXPECT_EQ(events[i].pool, pool_id::steal);
  }
}

TEST(EventRing, OverwriteKeepsNewest) {
  event_ring ring(8);
  for (std::uint64_t i = 0; i < 20; ++i) { ring.push(make_event(i)); }
  EXPECT_EQ(ring.pushed(), 20u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].arg, 12 + i);  // events 0..11 overwritten
  }
}

TEST(EventRing, ConcurrentWritersNeverYieldTornEvents) {
  // Multiple writers into ONE ring (the subsystem normally gives each
  // thread its own ring; the ring itself must still stay safe) plus a
  // snapshotting reader, all concurrent. Every returned event must be one
  // that some thread actually pushed: arg == begin_ns and arg < total.
  event_ring ring(64);
  constexpr unsigned kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const event& e : ring.snapshot()) {
        if (e.arg != e.begin_ns || e.arg >= kWriters * kPerWriter) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t arg = w * kPerWriter + i;
        event e = make_event(arg);
        e.end_ns = arg;  // keep arg == begin_ns invariant checked above
        e.begin_ns = arg;
        ring.push(e);
      }
    });
  }
  for (auto& t : writers) { t.join(); }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(ring.pushed(), kWriters * kPerWriter);
  const auto final_events = ring.snapshot();
  EXPECT_LE(final_events.size(), ring.capacity());
  EXPECT_FALSE(final_events.empty());
}

TEST(TraceHooks, ConcurrentThreadsRecordIntoOwnRings) {
  set_enabled(true);
  const sched_totals before = totals();
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kEach = 100;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::uint64_t i = 0; i < kEach; ++i) {
        count_steal(pool_id::steal, i % 2 == 0, 1);
        const std::uint64_t t0 = span_begin();
        record_span(pool_id::steal, event_kind::chunk, t0, 32);
      }
    });
  }
  for (auto& t : threads) { t.join(); }
  const sched_totals after = totals();
  set_enabled(false);
  EXPECT_EQ(after.steals_ok - before.steals_ok, kThreads * kEach / 2);
  EXPECT_EQ(after.steals_failed - before.steals_failed, kThreads * kEach / 2);
  EXPECT_EQ(after.chunks - before.chunks, kThreads * kEach);
}

TEST(TraceHooks, DisabledHotPathEmitsNothing) {
  set_enabled(false);
  event_ring& ring = local_ring();
  const std::uint64_t pushed_before = ring.pushed();
  const std::uint64_t steals_before =
      ring.counters.steals_ok.load(std::memory_order_relaxed) +
      ring.counters.steals_failed.load(std::memory_order_relaxed);
  const std::uint64_t chunks_before =
      ring.counters.chunks.load(std::memory_order_relaxed);

  for (int i = 0; i < 1000; ++i) {
    count_steal(pool_id::steal, true, 0);
    count_steal(pool_id::steal, false, 1);
    count_spawn(pool_id::task_queue);
    count_split(pool_id::steal);
    const std::uint64_t t0 = span_begin();
    EXPECT_EQ(t0, 0u);  // span never armed while disabled
    record_span(pool_id::fork_join, event_kind::chunk, t0, 64);
  }

  EXPECT_EQ(ring.pushed(), pushed_before);
  EXPECT_EQ(ring.counters.steals_ok.load(std::memory_order_relaxed) +
                ring.counters.steals_failed.load(std::memory_order_relaxed),
            steals_before);
  EXPECT_EQ(ring.counters.chunks.load(std::memory_order_relaxed), chunks_before);
  // Process-wide totals are reported as zero while tracing is off.
  const sched_totals t = totals();
  EXPECT_EQ(t.steals_ok, 0u);
  EXPECT_EQ(t.chunks, 0u);
}

TEST(TraceHooks, SpanArmedBeforeDisableIsDropped) {
  set_enabled(true);
  const std::uint64_t t0 = span_begin();
  EXPECT_GT(t0, 0u);
  set_enabled(false);
  event_ring& ring = local_ring();
  const std::uint64_t pushed_before = ring.pushed();
  record_span(pool_id::steal, event_kind::chunk, t0, 8);
  EXPECT_EQ(ring.pushed(), pushed_before);
}

TEST(TraceHooks, FailedStealIsCountedButNotPushed) {
  // A thief retries until its loop drains, so failed steals would flood the
  // ring; they only move the counters sched_metrics reads.
  set_enabled(true);
  event_ring& ring = local_ring();
  const std::uint64_t pushed_before = ring.pushed();
  const std::uint64_t failed_before =
      ring.counters.steals_failed.load(std::memory_order_relaxed);
  count_steal(pool_id::steal, /*ok=*/false, /*victim=*/1);
  const std::uint64_t pushed_after = ring.pushed();
  count_steal(pool_id::steal, /*ok=*/true, /*victim=*/1);
  set_enabled(false);
  EXPECT_EQ(pushed_after, pushed_before);
  EXPECT_EQ(ring.pushed(), pushed_before + 1);  // the successful steal
  EXPECT_EQ(ring.counters.steals_failed.load(std::memory_order_relaxed),
            failed_before + 1);
}

TEST(TraceHooks, ThreadLabelFirstWins) {
  std::thread([] {
    set_thread_label("first");
    set_thread_label("second");
    EXPECT_EQ(local_ring().label(), "first");
  }).join();
}

}  // namespace
}  // namespace pstlb::trace

// Arena admission-control unit tests: grant clamping, the cap<=1 sequential
// floor, bounded-queue saturation shedding, soft-deadline shedding, token
// conservation under concurrent admits, and re-entrant admission on the
// holding thread.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sched/arena.hpp"

namespace {

using pstlb::sched::admit_outcome;
using pstlb::sched::arena;
using pstlb::sched::shed_reason;

arena::config cfg(unsigned cap, unsigned max_pending = 64,
                  unsigned deadline_ms = 0) {
  arena::config c;
  c.name = "test";
  c.cap = cap;
  c.max_pending = max_pending;
  c.deadline_ms = deadline_ms;
  return c;
}

TEST(Arena, GrantIsClampedToCapAndAtLeastTwo) {
  arena a(cfg(8));
  auto t = a.admit(16);
  EXPECT_EQ(t.outcome(), admit_outcome::parallel);
  EXPECT_GE(t.granted(), 2u);
  EXPECT_LE(t.granted(), 8u);
}

TEST(Arena, ElasticArenaGivesLoneCallerFullRequest) {
  // Elastic arenas (the default-arena mode) never trim an uncontended
  // caller: even a cap-1 arena on a 1-core host must grant the requested
  // width, matching the pre-arena oversubscription behaviour.
  auto c = cfg(1, /*max_pending=*/64, /*deadline_ms=*/10);
  c.elastic = true;
  arena a(std::move(c));
  {
    auto t = a.admit(8);
    EXPECT_EQ(t.outcome(), admit_outcome::parallel);
    EXPECT_EQ(t.granted(), 8u);
    // A concurrent caller contends and is trimmed/queued against the cap:
    // with every token held and a 10ms deadline it sheds rather than hangs.
    admit_outcome outcome{};
    std::thread caller([&] { outcome = a.admit(8).outcome(); });
    caller.join();
    EXPECT_EQ(outcome, admit_outcome::shed_deadline);
  }
  // Idle again: the next caller is uncontended and elastic once more, and
  // the ticket returned exactly the tokens it charged.
  auto t2 = a.admit(4);
  EXPECT_EQ(t2.granted(), 4u);
  { auto drop = std::move(t2); }
  const auto s = a.snapshot();
  EXPECT_EQ(s.admitted, s.completed);
}

TEST(Arena, ElasticWaiterGetsFullWidthOnceIdle) {
  auto c = cfg(2);
  c.elastic = true;
  arena a(std::move(c));
  auto holder = a.admit(2);
  ASSERT_TRUE(holder.parallel());
  std::atomic<unsigned> width{0};
  std::thread caller([&] {
    auto t = a.admit(16);  // queues: all tokens held
    width.store(t.granted());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(width.load(), 0u);
  { auto drop = std::move(holder); }  // arena goes idle -> head waiter
  caller.join();
  EXPECT_EQ(width.load(), 16u);  // uncontended again: full request
}

TEST(Arena, CapOneMakesEveryCallSequential) {
  arena a(cfg(1));
  auto t = a.admit(8);
  EXPECT_EQ(t.outcome(), admit_outcome::sequential_cap);
  EXPECT_FALSE(t.parallel());
  EXPECT_EQ(a.snapshot().sequential_cap, 1u);
}

TEST(Arena, RequestOfOneIsSequential) {
  arena a(cfg(8));
  auto t = a.admit(1);
  EXPECT_EQ(t.outcome(), admit_outcome::sequential_cap);
}

TEST(Arena, FullQueueShedsToSequential) {
  arena a(cfg(2, /*max_pending=*/0));
  auto holder = a.admit(2);
  ASSERT_TRUE(holder.parallel());
  // Admission runs on another thread: the holding thread would take the
  // re-entrant bypass instead of the queue.
  admit_outcome outcome{};
  std::thread caller([&] { outcome = a.admit(2).outcome(); });
  caller.join();
  EXPECT_EQ(outcome, admit_outcome::shed_saturated);
  EXPECT_EQ(a.snapshot().shed_saturated, 1u);
  EXPECT_GE(arena::global_shed_count(), 1u);
}

TEST(Arena, DeadlineExpiryShedsInsteadOfHanging) {
  arena a(cfg(2, /*max_pending=*/8, /*deadline_ms=*/20));
  auto holder = a.admit(2);
  ASSERT_TRUE(holder.parallel());
  admit_outcome outcome{};
  std::thread caller([&] { outcome = a.admit(2).outcome(); });
  caller.join();  // must return: the deadline bounds the wait
  EXPECT_EQ(outcome, admit_outcome::shed_deadline);
  EXPECT_EQ(a.snapshot().shed_deadline, 1u);
}

TEST(Arena, WaiterIsGrantedWhenTokensFree) {
  arena a(cfg(2, 8, /*deadline_ms=*/0));
  auto holder = a.admit(2);
  ASSERT_TRUE(holder.parallel());
  std::atomic<bool> granted{false};
  std::thread caller([&] {
    auto t = a.admit(2);  // blocks until the holder releases
    granted.store(t.parallel());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(granted.load());
  { auto drop = std::move(holder); }  // release tokens
  caller.join();
  EXPECT_TRUE(granted.load());
  const auto s = a.snapshot();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_GE(s.peak_pending, 1u);
}

TEST(Arena, TokensAreConservedUnderConcurrentChurn) {
  arena a(cfg(8, 128));
  std::atomic<int> violations{0};
  std::vector<std::thread> callers;
  for (int u = 0; u < 16; ++u) {
    callers.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        auto t = a.admit(4);
        if (!t.parallel()) { continue; }
        if (t.granted() < 2 || t.granted() > 8) { violations.fetch_add(1); }
        std::this_thread::yield();
      }
    });
  }
  for (auto& c : callers) { c.join(); }
  EXPECT_EQ(violations.load(), 0);
  const auto s = a.snapshot();
  EXPECT_EQ(s.admitted, s.completed);
  // All tokens returned: a fresh admit gets the full fair share again.
  auto t = a.admit(8);
  ASSERT_TRUE(t.parallel());
  EXPECT_EQ(t.granted(), 8u);
}

TEST(Arena, ReentrantAdmitOnHoldingThreadCannotDeadlock) {
  arena a(cfg(4, /*max_pending=*/0));  // queue bound 0: any wait would shed
  auto outer = a.admit(4);
  ASSERT_TRUE(outer.parallel());
  // Same thread, tokens all held by `outer`: a queued second admission
  // would deadlock (nobody can release) or shed. The re-entrant bypass
  // must ride the outer grant instead.
  auto inner = a.admit(4);
  EXPECT_TRUE(inner.parallel());
  EXPECT_LE(inner.granted(), outer.granted());
  { auto drop = std::move(inner); }
  // Inner release must not return the outer's tokens.
  const auto s = a.snapshot();
  EXPECT_EQ(s.completed, 0u);
}

TEST(Arena, NoteDegradationAttributesToBoundArena) {
  arena a(cfg(8));
  {
    arena::scoped_bind bind(&a);
    pstlb::sched::note_degradation(shed_reason::oom);
  }
  EXPECT_EQ(a.snapshot().shed_oom, 1u);
  // Unbound sheds land in the process-wide counter only.
  const auto before = arena::global_shed_count();
  pstlb::sched::note_degradation(shed_reason::spawnfail);
  EXPECT_EQ(arena::global_shed_count(), before + 1);
  EXPECT_EQ(a.snapshot().shed_spawnfail, 0u);
}

TEST(Arena, AdmissionToggleControlsTarget) {
  const bool was_enabled = arena::admission_enabled();
  arena::set_admission_enabled(false);
  EXPECT_EQ(arena::admission_target(), nullptr);
  arena::set_admission_enabled(true);
  EXPECT_EQ(arena::admission_target(), &arena::default_arena());
  // A thread-bound arena wins over the default regardless of the toggle.
  arena a(cfg(4));
  {
    arena::scoped_bind bind(&a);
    EXPECT_EQ(arena::admission_target(), &a);
  }
  arena::set_admission_enabled(was_enabled);
}

TEST(Arena, SnapshotQuantilesComeFromTheCallHistogram) {
  pstlb::sched::arena_snapshot s;
  EXPECT_EQ(s.p50_ns(), 0.0);  // no samples
  s.call_hist[10] = 90;        // 90 calls in [1024, 2048) ns
  s.call_hist[20] = 10;        // 10 calls in [2^20, 2^21) ns
  EXPECT_EQ(s.p50_ns(), 1024.0);
  EXPECT_EQ(s.p99_ns(), static_cast<double>(1u << 20));
}

}  // namespace

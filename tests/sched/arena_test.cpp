// Arena admission unit tests: grant clamping, the cap<=1 sequential floor,
// FIFO waiting on the one process-wide core ledger that every arena shares,
// core conservation under concurrent admits, and re-entrant admission on a
// thread that already holds a grant.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "sched/arena.hpp"
#include "sched/thread_pool.hpp"

namespace {

using pstlb::sched::admit_outcome;
using pstlb::sched::arena;
using pstlb::sched::shed_reason;

arena::config cfg(unsigned cap) { return {"test", cap}; }

/// A parallel request that, granted alone, is charged every core of the
/// ledger (default_width()), so any other caller must wait for it.
unsigned full_width() { return std::max(2u, pstlb::sched::default_width()); }

TEST(Arena, GrantIsClampedToCapAndAtLeastTwo) {
  arena a(cfg(8));
  auto t = a.admit(16);
  EXPECT_EQ(t.outcome(), admit_outcome::parallel);
  EXPECT_GE(t.granted(), 2u);
  EXPECT_LE(t.granted(), 8u);
}

TEST(Arena, ElasticArenaGivesLoneCallerFullRequest) {
  // Admission never trims a lone caller: even above the ledger's width it
  // is granted the width it asked for (the pre-arena oversubscription).
  arena a(cfg(arena::no_cap));
  const unsigned wide = 2 * full_width();
  {
    auto t = a.admit(wide);
    EXPECT_EQ(t.outcome(), admit_outcome::parallel);
    EXPECT_EQ(t.granted(), wide);
    // A concurrent caller queues behind it (every core is charged) and is
    // granted when it releases; there is no deadline.
    std::atomic<bool> granted{false};
    std::thread caller([&] { granted.store(a.admit(4).parallel()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(granted.load());
    { auto drop = std::move(t); }
    caller.join();
    EXPECT_TRUE(granted.load());
  }
  // Idle again: the next caller is lone once more, and every ticket
  // returned exactly the cores it was charged.
  auto t2 = a.admit(4);
  EXPECT_EQ(t2.granted(), 4u);
  { auto drop = std::move(t2); }
  const auto s = a.snapshot();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.admitted, s.completed);
}

TEST(Arena, ElasticWaiterGetsFullWidthOnceIdle) {
  arena a(cfg(arena::no_cap));
  auto holder = a.admit(full_width());
  ASSERT_TRUE(holder.parallel());
  const unsigned wide = 4 * full_width();
  std::atomic<unsigned> width{0};
  std::thread caller([&] {
    auto t = a.admit(wide);  // queues: every core is held
    width.store(t.granted());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(width.load(), 0u);
  { auto drop = std::move(holder); }  // ledger goes idle -> head waiter
  caller.join();
  EXPECT_EQ(width.load(), wide);  // lone again: full request
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

TEST(Arena, WaiterIsGrantedWhenTokensFree) {
  arena a(cfg(full_width()));
  auto holder = a.admit(full_width());
  ASSERT_TRUE(holder.parallel());
  std::atomic<bool> granted{false};
  std::thread caller([&] {
    auto t = a.admit(2);  // blocks until the holder releases
    granted.store(t.parallel());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(granted.load());
  { auto drop = std::move(holder); }  // release cores
  caller.join();
  EXPECT_TRUE(granted.load());
  const auto s = a.snapshot();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_GE(s.peak_pending, 1u);
}

TEST(Arena, ArenasShareOneLedger) {
  // No arena holds cores of its own: a caller on B waits for the cores a
  // grant on A holds, and is granted once A releases them.
  const unsigned w = full_width();
  arena a(cfg(w));
  arena b(cfg(w));
  auto held = a.admit(w);
  ASSERT_TRUE(held.parallel());
  std::atomic<bool> granted{false};
  std::thread caller([&] {
    auto t = b.admit(w);
    granted.store(t.parallel());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(granted.load());
  { auto drop = std::move(held); }
  caller.join();
  EXPECT_TRUE(granted.load());
  for (const arena* x : {&a, &b}) {
    const auto s = x->snapshot();
    EXPECT_EQ(s.admitted, 1u);
    EXPECT_EQ(s.admitted, s.completed);
  }
}

TEST(Arena, TokensAreConservedUnderConcurrentChurn) {
  arena a(cfg(8));
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
  // All cores returned: a fresh admit is a lone caller with its full request.
  auto t = a.admit(8);
  ASSERT_TRUE(t.parallel());
  EXPECT_EQ(t.granted(), 8u);
}

TEST(Arena, ReentrantAdmitOnHoldingThreadCannotDeadlock) {
  arena a(cfg(arena::no_cap));
  auto outer = a.admit(full_width());
  ASSERT_TRUE(outer.parallel());
  // Same thread, every core held by `outer`: a queued second admission
  // would deadlock (nobody can release). The re-entrant bypass must ride
  // the outer grant instead.
  auto inner = a.admit(full_width());
  EXPECT_TRUE(inner.parallel());
  EXPECT_LE(inner.granted(), outer.granted());
  { auto drop = std::move(inner); }
  // Inner release must not return the outer's cores.
  const auto s = a.snapshot();
  EXPECT_EQ(s.completed, 0u);
}

TEST(Arena, HeldGrantIsRiddenAcrossArenas) {
  const unsigned w = full_width();
  arena a(cfg(arena::no_cap));
  arena b(cfg(arena::no_cap));
  auto outer = a.admit(w);
  ASSERT_TRUE(outer.parallel());
  {
    // Every core is held by this thread's grant on A, so queueing on B
    // would wait on this thread: the call rides the held grant instead.
    auto inner = b.admit(2 * w);
    EXPECT_TRUE(inner.parallel());
    EXPECT_LE(inner.granted(), outer.granted());
  }
  EXPECT_EQ(b.snapshot().admitted, 0u);
  { auto drop = std::move(outer); }
  // The ridden grant returned nothing: the ledger is idle, and a lone admit
  // is granted its full request, wider than any core count a wrong release
  // could have freed.
  auto fresh = b.admit(4 * w);
  EXPECT_EQ(fresh.granted(), 4 * w);
  { auto drop = std::move(fresh); }
  for (const arena* x : {&a, &b}) {
    const auto s = x->snapshot();
    EXPECT_EQ(s.admitted, 1u);
    EXPECT_EQ(s.admitted, s.completed);
  }
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

TEST(Arena, BoundArenaIsTheAdmissionTarget) {
  EXPECT_EQ(&arena::admission_target(), &arena::default_arena());
  arena a(cfg(4));
  {
    arena::scoped_bind bind(&a);
    EXPECT_EQ(&arena::admission_target(), &a);
  }
  EXPECT_EQ(&arena::admission_target(), &arena::default_arena());
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

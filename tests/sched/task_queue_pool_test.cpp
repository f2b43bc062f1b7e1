#include "sched/task_queue_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "sched/thread_pool.hpp"

namespace pstlb::sched {
namespace {

TEST(TaskQueuePool, LoopCoversEveryIndexOnce) {
  task_queue_pool& pool = task_queue_pool::global();
  for (const index_t n : {index_t{0}, index_t{1}, index_t{17}, index_t{4096}}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    loop_context ctx;
    ctx.n = n;
    ctx.grain = 32;
    ctx.state = &hits;
    ctx.run = [](void* state, index_t b, index_t e, unsigned) {
      auto& h = *static_cast<std::vector<std::atomic<int>>*>(state);
      for (index_t i = b; i < e; ++i) { h[static_cast<std::size_t>(i)].fetch_add(1); }
    };
    pool.run(4, ctx);
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(TaskQueuePool, SlotsAreUniquePerConcurrentWorker) {
  task_queue_pool& pool = task_queue_pool::global();
  constexpr unsigned participants = 4;
  // Track concurrent occupancy per tid: never two chunks under the same tid
  // at the same time (the invariant reductions rely on), and every tid
  // below the run's participants.
  std::vector<std::atomic<int>> occupancy(participants);
  std::atomic<bool> collision{false};

  struct state_t {
    std::vector<std::atomic<int>>* occupancy;
    std::atomic<bool>* collision;
  } state{&occupancy, &collision};

  loop_context ctx;
  ctx.n = 20000;
  ctx.grain = 50;
  ctx.state = &state;
  ctx.run = [](void* raw, index_t, index_t, unsigned tid) {
    auto& s = *static_cast<state_t*>(raw);
    if (tid >= s.occupancy->size()) {
      s.collision->store(true);
      return;
    }
    if ((*s.occupancy)[tid].fetch_add(1) != 0) { s.collision->store(true); }
    // small busy wait to widen the race window
    std::atomic<int> spin{0};
    while (spin.fetch_add(1, std::memory_order_relaxed) < 50) {}
    (*s.occupancy)[tid].fetch_sub(1);
  };
  pool.run(participants, ctx);
  EXPECT_FALSE(collision.load());
}

TEST(TaskQueuePool, GrowsForMoreParticipants) {
  std::atomic<int> count{0};
  loop_context ctx;
  ctx.n = 1000;
  ctx.grain = 10;
  ctx.state = &count;
  ctx.run = [](void* state, index_t b, index_t e, unsigned) {
    static_cast<std::atomic<int>*>(state)->fetch_add(static_cast<int>(e - b));
  };
  task_queue_pool::global().run(6, ctx);
  EXPECT_EQ(count.load(), 1000);
  EXPECT_GE(thread_pool::global().worker_count(), 5u);
}

}  // namespace
}  // namespace pstlb::sched

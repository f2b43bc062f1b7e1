// Partial-startup cleanup: when a pool constructor's Nth std::thread spawn
// throws, the already-started workers must be stopped and joined before the
// exception escapes (a joinable std::thread destructor terminates the
// process), and a failed ensure() must leave the pool fully usable.
// PSTLB_FAULT=spawnfail drives every path deterministically.
#include <gtest/gtest.h>

#include <atomic>
#include <system_error>

#include "pstlb/fault.hpp"
#include "sched/task_queue_pool.hpp"
#include "sched/thread_pool.hpp"

namespace {

namespace fault = pstlb::fault;
using pstlb::sched::loop_context;

class SpawnFailure : public ::testing::Test {
 protected:
  void TearDown() override { fault::set(fault::spec{}); }
};

TEST_F(SpawnFailure, ThreadPoolConstructorCleansUpAndThrows) {
  fault::set("spawnfail");
  EXPECT_THROW(pstlb::sched::thread_pool(4, "spawn_test"), std::system_error);
  // If the partial workers were leaked joinable, the THROW above would have
  // std::terminate'd instead of reaching this line.
  fault::set(fault::spec{});
  pstlb::sched::thread_pool pool(2, "spawn_test_ok");
  EXPECT_EQ(pool.worker_count(), 2u);
}

TEST_F(SpawnFailure, FailedEnsureLeavesThreadPoolUsable) {
  pstlb::sched::thread_pool pool(1, "ensure_test");
  fault::set("spawnfail");
  EXPECT_THROW(pool.ensure(4), std::system_error);
  fault::set(fault::spec{});
  // Strong guarantee: the original worker survived the failed growth and
  // regions still execute (growing further now also works).
  std::atomic<unsigned> ran{0};
  pool.run(2, [&](unsigned, unsigned) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 2u);
}

TEST_F(SpawnFailure, TransientFailureIsAbsorbedByRetry) {
  // spawnfail:2 fails only the first two std::thread spawns; the bounded
  // exponential-backoff retry (3 attempts per worker) must absorb them and
  // deliver a fully-populated pool.
  fault::set("spawnfail:2");
  pstlb::sched::thread_pool pool(4, "spawn_retry");
  EXPECT_EQ(pool.worker_count(), 4u);
}

TEST_F(SpawnFailure, TransientFailureDuringEnsureRecovers) {
  pstlb::sched::thread_pool pool(1, "ensure_retry");
  fault::set("spawnfail:1");
  pool.ensure(4);  // must not throw: one failure, retried
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST_F(SpawnFailure, SpawnfailCountParses) {
  EXPECT_EQ(fault::parse("spawnfail:2").mode, fault::kind::spawnfail);
  EXPECT_EQ(fault::parse("spawnfail:2").spawn_fails, 2u);
  EXPECT_EQ(fault::parse("spawnfail").spawn_fails, 0u);  // 0 = every attempt
  EXPECT_EQ(fault::parse("spawnfail:0").mode, fault::kind::none);
  EXPECT_EQ(fault::parse("spawnfail:x").mode, fault::kind::none);
}

TEST_F(SpawnFailure, FailedEnsureLeavesTaskQueuePoolUsable) {
  auto& pool = pstlb::sched::task_queue_pool::global();
  const unsigned workers = pstlb::sched::thread_pool::global().worker_count();
  fault::set("spawnfail");
  EXPECT_THROW(pool.ensure(workers + 2), std::system_error);
  fault::set(fault::spec{});
  std::atomic<int> sum{0};
  loop_context ctx;
  ctx.n = 100;
  ctx.grain = 10;
  ctx.state = &sum;
  ctx.run = [](void* state, pstlb::index_t b, pstlb::index_t e, unsigned) {
    static_cast<std::atomic<int>*>(state)->fetch_add(static_cast<int>(e - b));
  };
  pool.run(2, ctx);
  EXPECT_EQ(sum.load(), 100);
}

}  // namespace

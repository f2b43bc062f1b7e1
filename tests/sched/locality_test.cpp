#include "sched/locality.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "numa/page_registry.hpp"
#include "numa/topology.hpp"
#include "sched/steal_pool.hpp"

namespace pstlb::sched {
namespace {

numa::topology_tree spec(const char* s) {
  auto t = numa::parse_topology_spec(s);
  EXPECT_TRUE(t.has_value()) << s;
  return *t;
}

// ------------------------------------------------------------- locality plans

TEST(LocalityPlan, VictimOrderIsLlcThenNodeThenRemote) {
  // 2 nodes x 2 LLCs x 2 cores: cpus 0-3 on node 0 (LLC 0: 0,1; LLC 1: 2,3),
  // cpus 4-7 on node 1. Identity worker->cpu mapping at 8 participants.
  const auto plan = make_locality_plan(spec("2x2x2"), 8);
  ASSERT_TRUE(plan.active());
  EXPECT_EQ(plan.groups, 2u);
  EXPECT_EQ(plan.node_of,
            (std::vector<unsigned>{0, 0, 0, 0, 1, 1, 1, 1}));
  // Worker 0: LLC buddy first, node buddies next, remote last.
  EXPECT_EQ(plan.victims[0],
            (std::vector<unsigned>{1, 2, 3, 4, 5, 6, 7}));
  // Worker 3: tiers are {2} / {0, 1} / {4..7}; within a tier, rotation order
  // starting at t+1 (so the remote tier keeps its natural 4,5,6,7 order).
  EXPECT_EQ(plan.victims[3],
            (std::vector<unsigned>{2, 0, 1, 4, 5, 6, 7}));
  // Worker 4 (first cpu of node 1) mirrors worker 0 shifted by a node.
  EXPECT_EQ(plan.victims[4],
            (std::vector<unsigned>{5, 6, 7, 0, 1, 2, 3}));
}

TEST(LocalityPlan, FewerParticipantsThanCpusSpreadAcrossNodes) {
  // 4 workers on 8 cpus: worker t sits on cpu 2t -> nodes {0, 0, 1, 1}.
  const auto plan = make_locality_plan(spec("2x2x2"), 4);
  ASSERT_TRUE(plan.active());
  EXPECT_EQ(plan.node_of, (std::vector<unsigned>{0, 0, 1, 1}));
  EXPECT_EQ(plan.leader_of, (std::vector<unsigned>{0, 2}));
}

TEST(LocalityPlan, SingleNodeIsInactive) {
  const auto plan = make_locality_plan(numa::flat_tree(8), 8);
  EXPECT_FALSE(plan.active());
  EXPECT_EQ(plan.groups, 1u);
}

TEST(LocalityPlan, MoreParticipantsThanCpusStillCovered) {
  const auto plan = make_locality_plan(spec("2x1x2"), 16);
  EXPECT_EQ(plan.participants, 16u);
  EXPECT_TRUE(plan.active());
  for (unsigned t = 0; t < 16; ++t) {
    EXPECT_EQ(plan.victims[t].size(), 15u);
    EXPECT_LT(plan.node_of[t], 2u);
  }
}

// --------------------------------------------------------------- chunk seeds

loop_context make_ctx(index_t n, index_t grain) {
  loop_context ctx;
  ctx.n = n;
  ctx.grain = grain;
  ctx.run = [](void*, index_t, index_t, unsigned) {};
  return ctx;
}

TEST(ChunkSeeds, ExplicitHomeMapGroupsRuns) {
  const auto plan = make_locality_plan(spec("2x2x2"), 4);  // leaders {0, 2}
  const scoped_chunk_home home(
      [](const void*, index_t c) -> unsigned { return c < 4 ? 0u : 1u; }, nullptr);
  const auto seeds = plan_chunk_seeds(make_ctx(80, 10), plan, 8);  // 8 chunks
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0].tid, 0u);
  EXPECT_EQ(seeds[0].begin, 0u);
  EXPECT_EQ(seeds[0].end, 4u);
  EXPECT_EQ(seeds[1].tid, 2u);
  EXPECT_EQ(seeds[1].begin, 4u);
  EXPECT_EQ(seeds[1].end, 8u);
}

TEST(ChunkSeeds, UnknownNodeFallsBackToCallerGroup) {
  const auto plan = make_locality_plan(spec("2x2x2"), 4);
  const scoped_chunk_home home([](const void*, index_t) -> unsigned { return 99u; },
                               nullptr);
  const auto seeds = plan_chunk_seeds(make_ctx(40, 10), plan, 4);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0].tid, 0u);
  EXPECT_EQ(seeds[0].end, 4u);
}

TEST(ChunkSeeds, NoPlacementInfoSeedsEverythingToCaller) {
  const auto plan = make_locality_plan(spec("2x2x2"), 4);
  const auto seeds = plan_chunk_seeds(make_ctx(80, 10), plan, 8);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0].tid, 0u);
  EXPECT_EQ(seeds[0].begin, 0u);
  EXPECT_EQ(seeds[0].end, 8u);
}

TEST(ChunkSeeds, PageRegistryDrivesAssignment) {
  // Fake allocation: 4 page-sized slices parallel-touched by 4 workers.
  const std::size_t page = numa::topology().page_size;
  const std::size_t bytes = 4 * page;
  alignas(64) static char fake;  // registry keys by pointer only
  numa::page_registry::instance().record(
      &fake, {bytes, numa::placement::parallel_touch, 4});

  const auto plan = make_locality_plan(spec("2x1x2"), 4);  // nodes {0,0,1,1}
  scoped_data_hint hint(&fake, 1);  // 1 byte per index
  loop_context ctx = make_ctx(static_cast<index_t>(bytes),
                              static_cast<index_t>(page));
  const auto seeds = plan_chunk_seeds(ctx, plan, 4);
  numa::page_registry::instance().erase(&fake);

  // Pages 0,1 were touched by workers 0,1 (node 0); pages 2,3 by workers
  // 2,3 (node 1). Leaders are 0 and 2.
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0].tid, 0u);
  EXPECT_EQ(seeds[0].begin, 0u);
  EXPECT_EQ(seeds[0].end, 2u);
  EXPECT_EQ(seeds[1].tid, 2u);
  EXPECT_EQ(seeds[1].begin, 2u);
  EXPECT_EQ(seeds[1].end, 4u);
}

TEST(HomeNode, SequentialTouchStaysWithCaller) {
  const auto plan = make_locality_plan(spec("2x1x2"), 4);
  numa::allocation_info info{1 << 20, numa::placement::sequential_touch, 1};
  EXPECT_EQ(home_node_of(info, 0, plan), plan.node_of[0]);
  EXPECT_EQ(home_node_of(info, (1 << 20) - 1, plan), plan.node_of[0]);
}

// ----------------------------------------------------- steal pool integration

class StealLocalityEnv : public ::testing::Test {
 protected:
  const numa::scoped_topology_for_testing topology_{"2x1x2"};
};

TEST_F(StealLocalityEnv, CoverageWithLocalityPlan) {
  steal_pool& pool = steal_pool::global();
  const int n = 10000;
  std::vector<std::atomic<int>> hits(n);
  loop_context ctx;
  ctx.n = n;
  ctx.grain = 16;
  ctx.state = &hits;
  ctx.run = [](void* state, index_t b, index_t e, unsigned) {
    auto& h = *static_cast<std::vector<std::atomic<int>>*>(state);
    for (index_t i = b; i < e; ++i) { h[static_cast<std::size_t>(i)].fetch_add(1); }
  };
  // Explicit home map: split the index space across both nodes.
  const scoped_chunk_home home(
      [](const void*, index_t c) -> unsigned { return c % 2 == 0 ? 0u : 1u; }, nullptr);
  for (int round = 0; round < 10; ++round) {
    pool.run(4, ctx);
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), round + 1)
          << "index " << i;
    }
  }
}

TEST_F(StealLocalityEnv, ExactlyOneExceptionOnLocalityPath) {
  steal_pool& pool = steal_pool::global();
  std::atomic<int> throws{0};
  loop_context ctx;
  ctx.n = 10000;
  ctx.grain = 16;
  ctx.state = &throws;
  ctx.run = [](void* state, index_t b, index_t e, unsigned) {
    for (index_t i = b; i < e; ++i) {
      if (i == 4321) {
        static_cast<std::atomic<int>*>(state)->fetch_add(1);
        throw std::runtime_error("locality boom");
      }
    }
  };
  const scoped_chunk_home home(
      [](const void*, index_t c) -> unsigned { return c % 2 == 0 ? 0u : 1u; }, nullptr);
  for (int round = 0; round < 5; ++round) {
    throws.store(0);
    try {
      pool.run(4, ctx);
      FAIL() << "expected runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "locality boom");
    }
    EXPECT_EQ(throws.load(), 1);
  }
}

}  // namespace
}  // namespace pstlb::sched

#include "numa/first_touch_allocator.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "numa/page_registry.hpp"
#include "numa/topology.hpp"

namespace pstlb::numa {
namespace {

TEST(Topology, ReportsSaneValues) {
  const auto& info = topology();
  EXPECT_GE(info.page_size, 1024u);
  EXPECT_GE(info.numa_nodes, 1u);
  EXPECT_GE(info.cores, 1u);
}

TEST(FirstTouchAllocator, VectorWorksEndToEnd) {
  exec::omp_static_policy pol{4};
  std::vector<double, first_touch_allocator<double>> v{
      first_touch_allocator<double>{pol}};
  v.resize(100000);
  std::iota(v.begin(), v.end(), 0.0);
  EXPECT_EQ(v[99999], 99999.0);
  v.clear();
  v.shrink_to_fit();
}

TEST(FirstTouchAllocator, RegistersParallelPlacement) {
  exec::steal_policy pol{4};
  first_touch_allocator<double, exec::steal_policy> alloc{pol};
  double* p = alloc.allocate(1 << 16);
  const auto info = page_registry::instance().lookup(p);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->bytes, (1u << 16) * sizeof(double));
  EXPECT_EQ(info->touched, placement::parallel_touch);
  EXPECT_EQ(info->touch_threads, 4u);
  const std::size_t live_before = page_registry::instance().live_allocations();
  alloc.deallocate(p, 1 << 16);
  EXPECT_EQ(page_registry::instance().live_allocations(), live_before - 1);
}

TEST(FirstTouchAllocator, SeqPolicyRecordsSequentialPlacement) {
  first_touch_allocator<double, exec::policy> alloc{exec::seq};
  double* p = alloc.allocate(4096);
  const auto info = page_registry::instance().lookup(p);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->touched, placement::sequential_touch);
  alloc.deallocate(p, 4096);
}

TEST(DefaultTouchAllocator, RecordsSequentialPlacement) {
  default_touch_allocator<double> alloc;
  double* p = alloc.allocate(4096);
  const auto info = page_registry::instance().lookup(p);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->touched, placement::sequential_touch);
  alloc.deallocate(p, 4096);
}

TEST(FirstTouchAllocator, ZeroSizedAllocationIsSafe) {
  exec::omp_static_policy pol{2};
  first_touch_allocator<int, exec::omp_static_policy> alloc{pol};
  int* p = alloc.allocate(0);
  alloc.deallocate(p, 0);
}

TEST(FirstTouchAllocator, RebindPropagatesPolicy) {
  exec::steal_policy pol{3};
  first_touch_allocator<double, exec::steal_policy> alloc{pol};
  first_touch_allocator<int, exec::steal_policy> rebound{alloc};
  EXPECT_EQ(rebound.policy().threads, 3u);
}

TEST(PageRegistry, TracksLiveBytes) {
  auto& registry = page_registry::instance();
  const std::size_t before = registry.live_bytes();
  default_touch_allocator<char> alloc;
  char* p = alloc.allocate(1 << 20);
  EXPECT_EQ(registry.live_bytes(), before + (1 << 20));
  alloc.deallocate(p, 1 << 20);
  EXPECT_EQ(registry.live_bytes(), before);
}

TEST(ParallelFirstTouch, TouchesWholeRangeWithoutFault) {
  exec::steal_policy pol{4};
  std::vector<std::byte> buffer(1 << 20);
  parallel_first_touch(pol, buffer.data(), buffer.size());
  SUCCEED();
}

}  // namespace
}  // namespace pstlb::numa

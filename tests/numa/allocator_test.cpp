#include "numa/first_touch_allocator.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

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

TEST(ParallelFirstTouch, TouchesWholeRangeWithoutFault) {
  exec::steal_policy pol{4};
  std::vector<std::byte> buffer(1 << 20);
  parallel_first_touch(pol, buffer.data(), buffer.size());
  SUCCEED();
}

}  // namespace
}  // namespace pstlb::numa

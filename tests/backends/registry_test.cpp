#include "backends/backend_registry.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "pstlb/pstlb.hpp"

namespace pstlb::backends {
namespace {

TEST(BackendRegistry, NamesRoundTrip) {
  for (backend_id id : all_backends()) {
    EXPECT_EQ(parse_backend(name_of(id)), id);
  }
}

TEST(BackendRegistry, ParallelExcludesSeq) {
  for (backend_id id : parallel_backends()) {
    EXPECT_NE(id, backend_id::seq);
  }
  EXPECT_EQ(parallel_backends().size() + 1, all_backends().size());
}

TEST(BackendRegistry, MakePolicyDispatchesEveryBackend) {
  std::vector<double> v(10000);
  std::iota(v.begin(), v.end(), 1.0);
  const double expected = 10000.0 * 10001.0 / 2.0;
  for (backend_id id : all_backends()) {
    const exec::policy policy = exec::make_policy(id, 4);
    EXPECT_EQ(policy.backend, id);
    EXPECT_DOUBLE_EQ(pstlb::reduce(policy, v.begin(), v.end(), 0.0), expected)
        << name_of(id);
  }
}

TEST(BackendRegistry, ZeroThreadsMeansEnvironmentDefault) {
  EXPECT_EQ(exec::make_policy(backend_id::steal, 0).threads, exec::default_threads());
  EXPECT_EQ(exec::make_policy(backend_id::steal, 3).threads, 3u);
}

}  // namespace
}  // namespace pstlb::backends

#include "backends/backend_registry.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
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

/// A policy's five fields: (backend, threads, grain, seq_threshold, unseq).
using fields_t = std::tuple<backend_id, unsigned, index_t, index_t, bool>;

fields_t fields(const exec::policy& p) {
  return {p.backend, p.threads, p.grain, p.seq_threshold, p.unseq};
}

TEST(PolicyProfiles, PresetsMapToEngines) {
  const unsigned d = exec::default_threads();
  const index_t gnu_cutoff = index_t{1} << 10;
  // NVC-OMP is GCC-GNU's fork_join engine without the sequential cutoff.
  EXPECT_EQ(fields(exec::omp_static_policy{4}),
            fields_t(backend_id::fork_join, 4, 0, 0, false));
  EXPECT_EQ(fields(exec::omp_static_policy{}),
            fields_t(backend_id::fork_join, d, 0, 0, false));
  EXPECT_EQ(fields(exec::fork_join_policy{4}),
            fields_t(backend_id::fork_join, 4, 0, gnu_cutoff, false));
  EXPECT_EQ(fields(exec::omp_dynamic_policy{4}),
            fields_t(backend_id::omp_dynamic, 4, 0, 0, false));
  EXPECT_EQ(fields(exec::steal_policy{4}), fields_t(backend_id::steal, 4, 0, 0, false));
  EXPECT_EQ(fields(exec::task_policy{4}),
            fields_t(backend_id::task_futures, 4, 0, 0, false));
  EXPECT_EQ(fields(execution::par), fields_t(backend_id::steal, d, 0, 0, false));
  EXPECT_EQ(fields(execution::par_unseq), fields_t(backend_id::steal, d, 0, 0, true));
}

TEST(BackendRegistry, ZeroThreadsMeansEnvironmentDefault) {
  EXPECT_EQ(exec::make_policy(backend_id::steal, 0).threads, exec::default_threads());
  EXPECT_EQ(exec::make_policy(backend_id::steal, 3).threads, 3u);
}

}  // namespace
}  // namespace pstlb::backends

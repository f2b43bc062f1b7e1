// Shared test fixtures: the backend matrix every algorithm and skeleton test
// runs over, plus the size grid for boundary coverage.
//
// A per-backend test is written once and runs once per backend id:
//
//   PSTLB_POLICY_TEST(ForeachAlgos, Fill) { ... this->pol ... }
//
// registers `ForeachAlgos/<i>.Fill` for every parallel backend, and
// PSTLB_SKELETON_TEST(SkeletonTest, ...) does the same over every backend id,
// seq included. The body compiles once; inside it `this->id` is the case's
// backend, `this->pol` an eager policy for it and `this->make()` its backend
// value. Each case reports the type name of the preset (or backend factory)
// that selects it as its type parameter, so ctest lists it as
// `ForeachAlgos.Fill<pstlb::exec::steal_policy>` — the name it had as a typed
// test, which ctest filters and recorded test lists key on. gtest's own
// TEST_P registration would rename every case (`Suite.Fill/steal`), which is
// why the cases are registered here with gtest's RegisterTest instead.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "backends/backend_registry.hpp"
#include "pstlb/exec.hpp"

namespace pstlb::test {

/// Thread count for tests: enough for real interleaving even on small hosts.
inline constexpr unsigned kTestThreads = 4;

/// Sizes chosen to hit boundaries: empty, single, tiny, around chunk/grain
/// edges, non-power-of-two, and big enough to split many chunks.
inline const std::vector<index_t>& test_sizes() {
  static const std::vector<index_t> sizes{0,    1,    2,    3,     7,     8,
                                          63,   64,   65,   1023,  1024,  1025,
                                          4096, 9973, 65536};
  return sizes;
}

/// A policy for backend `id` with its sequential-fallback threshold disabled
/// so even tiny inputs exercise the parallel code path.
inline exec::policy make_eager(backends::backend_id id,
                               unsigned threads = kTestThreads, index_t grain = 0) {
  exec::policy policy = exec::make_policy(id, threads);
  policy.seq_threshold = 0;
  policy.grain = grain;
  return policy;
}

/// The name of the policy preset selecting `id`.
inline const char* policy_label(backends::backend_id id) {
  switch (id) {
    case backends::backend_id::fork_join: return "pstlb::exec::fork_join_policy";
    case backends::backend_id::omp_static: return "pstlb::exec::omp_static_policy";
    case backends::backend_id::omp_dynamic: return "pstlb::exec::omp_dynamic_policy";
    case backends::backend_id::steal: return "pstlb::exec::steal_policy";
    case backends::backend_id::task_futures: return "pstlb::exec::task_policy";
    default: return "?";  // seq has no parallel preset
  }
}

/// The name of the backend factory for `id`.
inline const char* backend_label(backends::backend_id id) {
  switch (id) {
    case backends::backend_id::seq: return "pstlb::backends::seq_backend";
    case backends::backend_id::fork_join: return "pstlb::backends::fork_join_backend";
    case backends::backend_id::omp_static: return "pstlb::backends::backend(omp_static)";
    case backends::backend_id::omp_dynamic: return "pstlb::backends::omp_dynamic_backend";
    case backends::backend_id::steal: return "pstlb::backends::steal_backend";
    case backends::backend_id::task_futures: return "pstlb::backends::task_futures_backend";
  }
  return "?";
}

/// Fixture of the per-backend suites.
class backend_test : public ::testing::Test {
 public:
  explicit backend_test(backends::backend_id backend)
      : id(backend), pol(make_eager(backend)) {}

  backends::backend make() const { return {id, kTestThreads}; }

  const backends::backend_id id;
  exec::policy pol;
};

/// Registers `Test` once per id as `<suite>/<i>.<name>`, with label(id) as
/// the case's reported type parameter.
template <class Test>
bool register_per_backend(std::span<const backends::backend_id> ids,
                          const char* (*label)(backends::backend_id),
                          const char* suite, const char* name, const char* file,
                          int line) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const backends::backend_id id = ids[i];
    ::testing::RegisterTest((std::string(suite) + "/" + std::to_string(i)).c_str(),
                            name, label(id), nullptr, file, line,
                            [id]() -> backend_test* { return new Test(id); });
  }
  return true;
}

}  // namespace pstlb::test

#define PSTLB_BACKEND_TEST_(ids, label, Suite, Name)                          \
  class Suite##_##Name##_Test : public ::pstlb::test::backend_test {          \
   public:                                                                   \
    using backend_test::backend_test;                                         \
    void TestBody() override;                                                \
  };                                                                          \
  [[maybe_unused]] const bool Suite##_##Name##_registered =                   \
      ::pstlb::test::register_per_backend<Suite##_##Name##_Test>(             \
          ids, label, #Suite, #Name, __FILE__, __LINE__);                     \
  void Suite##_##Name##_Test::TestBody()

/// Test `Suite.Name`, run once per parallel backend.
#define PSTLB_POLICY_TEST(Suite, Name)                                        \
  PSTLB_BACKEND_TEST_(::pstlb::backends::parallel_backends(),                 \
                      &::pstlb::test::policy_label, Suite, Name)

/// Test `Suite.Name`, run once per backend id, seq included.
#define PSTLB_SKELETON_TEST(Suite, Name)                                      \
  PSTLB_BACKEND_TEST_(::pstlb::backends::all_backends(),                      \
                      &::pstlb::test::backend_label, Suite, Name)

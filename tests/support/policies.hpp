// Shared test fixtures: the profile matrix every algorithm and skeleton test
// runs over, plus the size grid for boundary coverage.
//
// A per-profile test is written once and runs once per profile:
//
//   PSTLB_POLICY_TEST(ForeachAlgos, Fill) { ... this->pol ... }
//
// registers `ForeachAlgos/<i>.Fill` for every parallel profile, and
// PSTLB_SKELETON_TEST(SkeletonTest, ...) does the same over every profile,
// seq included. The body compiles once; inside it `this->id` is the case's
// engine, `this->pol` an eager policy for its profile and `this->make()` its
// backend value. Each case reports the type name of the preset (or backend
// factory) that selects it as its type parameter, so ctest lists it as
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

/// The configurations the parameterized tests run: every engine, and NVC-OMP
/// (`omp`), which has no engine of its own: exec::omp_static_policy is the
/// fork_join engine without GNU's sequential cutoff. Each profile has its
/// engine's backend_id number (omp the 2 that backend_id leaves free), since
/// gtest names a parameterized case by its parameter's bytes.
enum class profile { seq, fork_join, omp, omp_dyn, steal, futures };

inline constexpr profile all_profiles[] = {profile::seq,     profile::fork_join,
                                           profile::omp,     profile::omp_dyn,
                                           profile::steal,   profile::futures};
/// Every profile but seq.
inline constexpr std::span<const profile> parallel_profiles =
    std::span<const profile>(all_profiles).subspan(1);

/// The engine `p` runs on.
inline backends::backend_id engine_of(profile p) {
  return p == profile::omp ? backends::backend_id::fork_join
                           : static_cast<backends::backend_id>(p);
}

/// The registry name of `p`'s engine, or "omp" for NVC-OMP.
inline std::string name_of(profile p) {
  return p == profile::omp ? "omp" : std::string(backends::name_of(engine_of(p)));
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

/// The eager policy of profile `p`; NVC-OMP's preset has no threshold to
/// disable.
inline exec::policy make_eager(profile p, unsigned threads = kTestThreads,
                               index_t grain = 0) {
  if (p != profile::omp) { return make_eager(engine_of(p), threads, grain); }
  exec::policy policy = exec::omp_static_policy{threads};
  policy.grain = grain;
  return policy;
}

/// The name of the policy preset selecting `p`.
inline const char* policy_label(profile p) {
  switch (p) {
    case profile::fork_join: return "pstlb::exec::fork_join_policy";
    case profile::omp: return "pstlb::exec::omp_static_policy";
    case profile::omp_dyn: return "pstlb::exec::omp_dynamic_policy";
    case profile::steal: return "pstlb::exec::steal_policy";
    case profile::futures: return "pstlb::exec::task_policy";
    case profile::seq: break;  // seq has no parallel preset
  }
  return "?";
}

/// The name of the backend factory for `p`. NVC-OMP runs on fork_join's
/// backend, so its skeleton cases repeat fork_join_backend's.
inline const char* backend_label(profile p) {
  switch (p) {
    case profile::seq: return "pstlb::backends::seq_backend";
    case profile::fork_join: return "pstlb::backends::fork_join_backend";
    case profile::omp: return "pstlb::backends::backend(omp_static)";
    case profile::omp_dyn: return "pstlb::backends::omp_dynamic_backend";
    case profile::steal: return "pstlb::backends::steal_backend";
    case profile::futures: return "pstlb::backends::task_futures_backend";
  }
  return "?";
}

/// Fixture of the per-profile suites.
class backend_test : public ::testing::Test {
 public:
  explicit backend_test(profile p) : id(engine_of(p)), pol(make_eager(p)) {}

  backends::backend make() const { return {id, kTestThreads}; }

  const backends::backend_id id;
  exec::policy pol;
};

/// Registers `Test` once per profile as `<suite>/<i>.<name>`, with label(p)
/// as the case's reported type parameter.
template <class Test>
bool register_per_profile(std::span<const profile> profiles,
                          const char* (*label)(profile), const char* suite,
                          const char* name, const char* file, int line) {
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const profile p = profiles[i];
    ::testing::RegisterTest((std::string(suite) + "/" + std::to_string(i)).c_str(),
                            name, label(p), nullptr, file, line,
                            [p]() -> backend_test* { return new Test(p); });
  }
  return true;
}

}  // namespace pstlb::test

#define PSTLB_BACKEND_TEST_(profiles, label, Suite, Name)                     \
  class Suite##_##Name##_Test : public ::pstlb::test::backend_test {          \
   public:                                                                   \
    using backend_test::backend_test;                                         \
    void TestBody() override;                                                \
  };                                                                          \
  [[maybe_unused]] const bool Suite##_##Name##_registered =                   \
      ::pstlb::test::register_per_profile<Suite##_##Name##_Test>(             \
          profiles, label, #Suite, #Name, __FILE__, __LINE__);                \
  void Suite##_##Name##_Test::TestBody()

/// Test `Suite.Name`, run once per parallel profile.
#define PSTLB_POLICY_TEST(Suite, Name)                                        \
  PSTLB_BACKEND_TEST_(::pstlb::test::parallel_profiles,                       \
                      &::pstlb::test::policy_label, Suite, Name)

/// Test `Suite.Name`, run once per profile, seq included.
#define PSTLB_SKELETON_TEST(Suite, Name)                                      \
  PSTLB_BACKEND_TEST_(::pstlb::test::all_profiles,                            \
                      &::pstlb::test::backend_label, Suite, Name)

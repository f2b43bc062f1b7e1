// Multi-tenant overload tests: many concurrent request threads funneling
// mixed kernels through arena admission on every backend. Checks results
// against sequential references, no deadlock on the shared core ledger or at
// the cap<=1 floor, graceful degradation (not errors) under injected
// worker-spawn failure, the exactly-one-exception-per-caller contract
// under fault injection, and that no region of a call is wider than its
// grant.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "numa/first_touch_allocator.hpp"
#include "pstlb/fault.hpp"
#include "pstlb/pstlb.hpp"
#include "sched/arena.hpp"
#include "support/policies.hpp"
#include "trace/trace.hpp"

namespace {

using pstlb::index_t;
using pstlb::sched::arena;

namespace fault = pstlb::fault;

arena::config arena_cfg(const char* name, unsigned cap) { return {name, cap}; }

/// One caller's workload: a kernel mix whose expected values are computed
/// sequentially up front. Returns the number of wrong results.
int run_mix(const pstlb::exec::policy& policy, unsigned seed) {
  int failures = 0;
  std::vector<long long> v(4096);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<long long>((i * 131 + seed) % 997);
  }
  const long long expected_sum = std::accumulate(v.begin(), v.end(), 0LL);
  if (pstlb::reduce(policy, v.begin(), v.end(), 0LL) != expected_sum) {
    ++failures;
  }

  auto doubled = v;
  pstlb::for_each(policy, doubled.begin(), doubled.end(),
                  [](long long& x) { x *= 2; });
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (doubled[i] != 2 * v[i]) { ++failures; break; }
  }

  std::vector<long long> scanned(v.size());
  pstlb::inclusive_scan(policy, v.begin(), v.end(), scanned.begin());
  if (scanned.back() != expected_sum) { ++failures; }

  auto sorted = v;
  pstlb::sort(policy, sorted.begin(), sorted.end());
  if (!std::is_sorted(sorted.begin(), sorted.end()) ||
      std::accumulate(sorted.begin(), sorted.end(), 0LL) != expected_sum) {
    ++failures;
  }
  return failures;
}

/// Runs `callers` request threads against `a`, every thread bound to the
/// arena, rotating through all five policies. Returns total wrong results.
int hammer(arena& a, unsigned callers, int rounds) {
  std::atomic<int> failures{0};
  std::vector<std::thread> users;
  users.reserve(callers);
  for (unsigned u = 0; u < callers; ++u) {
    users.emplace_back([&a, u, rounds, &failures] {
      arena::scoped_bind bind(&a);
      for (int round = 0; round < rounds; ++round) {
        const unsigned seed = u * 1000 + static_cast<unsigned>(round);
        switch (u % 5) {
          case 0:
            failures += run_mix(pstlb::exec::seq, seed);
            break;
          case 1:
            failures += run_mix(
                pstlb::test::make_eager(pstlb::backends::backend_id::steal), seed);
            break;
          case 2:
            failures += run_mix(
                pstlb::test::make_eager(pstlb::backends::backend_id::fork_join), seed);
            break;
          case 3:
            failures += run_mix(
                pstlb::test::make_eager(pstlb::backends::backend_id::task_futures), seed);
            break;
          default:
            failures += run_mix(
                pstlb::test::make_eager(pstlb::backends::backend_id::omp_dynamic),
                seed);
            break;
        }
      }
    });
  }
  for (auto& user : users) { user.join(); }
  return failures.load();
}

class ArenaStress : public ::testing::Test {
 protected:
  void TearDown() override { fault::set(fault::spec{}); }
};

TEST_F(ArenaStress, SixtyFourCallersAgainstSmallCapStayCorrect) {
  // 64 request threads through one arena, each call capped at 8 wide:
  // heavy queueing on the ledger and narrower grants, but every result must
  // still match the sequential reference and nobody may deadlock.
  arena a(arena_cfg("stress8", 8));
  EXPECT_EQ(hammer(a, 64, 2), 0);
  const auto s = a.snapshot();
  EXPECT_GT(s.admitted, 0u);
  EXPECT_EQ(s.admitted, s.completed);
  EXPECT_EQ(s.watchdog_fires, 0u);
}

TEST_F(ArenaStress, CapOfOneDegradesEveryCallWithoutDeadlock) {
  arena a(arena_cfg("cap1", 1));
  EXPECT_EQ(hammer(a, 16, 2), 0);
  const auto s = a.snapshot();
  EXPECT_EQ(s.admitted, 0u);          // nothing ran parallel
  EXPECT_GT(s.sequential_cap, 0u);    // the cap policy degraded them all
}

TEST_F(ArenaStress, SpawnFailureShedsGracefullyWithObservableCounter) {
  // An oversized grant forces pool growth; with PSTLB_FAULT=spawnfail every
  // growth attempt fails, so each parallel leg on every backend must shed to
  // sequential — correct results, no exception, and a visible shed counter.
  arena a(arena_cfg("spawn", 4096));
  fault::set("spawnfail");
  for (pstlb::backends::backend_id id : pstlb::backends::parallel_backends()) {
    const std::uint64_t shed_before = a.snapshot().shed_spawnfail;
    std::atomic<int> failures{0};
    std::vector<std::thread> users;
    for (unsigned u = 0; u < 8; ++u) {
      users.emplace_back([&a, id, u, &failures] {
        arena::scoped_bind bind(&a);
        failures += run_mix(pstlb::test::make_eager(id, 512), u);
      });
    }
    for (auto& user : users) { user.join(); }
    EXPECT_EQ(failures.load(), 0) << pstlb::backends::name_of(id);
    EXPECT_GT(a.snapshot().shed_spawnfail, shed_before) << pstlb::backends::name_of(id);
  }
  fault::set(fault::spec{});
}

TEST_F(ArenaStress, SortOomFallsThroughTheWholeDegradationLadder) {
  // oom:1 makes every hooked scratch allocation throw: samplesort's element
  // and id buffers fail -> sequential whole-array std sort, the ladder's one
  // rung. The call must still produce a sorted result, throw nothing, and
  // count the shed.
  arena a(arena_cfg("oom", 8));
  fault::set("oom:1");
  arena::scoped_bind bind(&a);
  auto policy = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
  // At sample_sort_min elements the samplesort leg runs first.
  std::vector<long long> v(static_cast<std::size_t>(pstlb::detail::sample_sort_min));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<long long>((i * 2654435761u) % 100000);
  }
  auto stable = v;
  EXPECT_NO_THROW(pstlb::sort(policy, v.begin(), v.end()));
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_NO_THROW(pstlb::stable_sort(policy, stable.begin(), stable.end()));
  EXPECT_TRUE(std::is_sorted(stable.begin(), stable.end()));
  fault::set(fault::spec{});
  EXPECT_GT(a.snapshot().shed_oom, 0u);
}

/// The number of traced `region` spans since `since_ns`, each checked to
/// be at most `width` participants wide.
unsigned regions_within(std::uint64_t since_ns, unsigned width) {
  namespace trace = pstlb::trace;
  unsigned regions = 0;
  for (const trace::event_ring* ring : trace::registry::instance().rings()) {
    for (const trace::event& e : ring->snapshot()) {
      if (e.kind != trace::event_kind::region || e.begin_ns < since_ns) { continue; }
      ++regions;
      EXPECT_LE(e.arg, width) << "a region wider than the arena's grant";
    }
  }
  return regions;
}

TEST_F(ArenaStress, SortRegionsStayWithinTheGrant) {
  // A 2^16-element sort takes samplesort, whose classify, scatter and bucket
  // passes are the call's regions (its scratch is placed by the passes that
  // first write it, not by a touch region of its own). Bound to an arena of
  // cap 2, every region the call opens must stay within its 2-wide grant: a
  // wider one runs on workers the ledger counts as free for other callers.
  namespace trace = pstlb::trace;
  arena a(arena_cfg("cap2", 2));
  arena::scoped_bind bind(&a);
  std::vector<double> v(std::size_t{1} << 16);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<double>((i * 2654435761u) % 100003);
  }
  const std::uint64_t since = trace::now_ns();
  trace::set_enabled(true);
  pstlb::sort(pstlb::exec::steal_policy{4}, v.begin(), v.end());
  trace::set_enabled(false);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_GT(regions_within(since, 2), 0u);
}

TEST_F(ArenaStress, FirstTouchRegionsStayWithinTheGrant) {
  // The first-touch allocator's page-touch loop is admitted like any other
  // parallel call: bound to an arena of cap 2, a 4-wide policy's touch
  // region must stay within the 2-wide grant.
  namespace trace = pstlb::trace;
  arena a(arena_cfg("cap2", 2));
  arena::scoped_bind bind(&a);
  const std::uint64_t since = trace::now_ns();
  trace::set_enabled(true);
  {
    const std::vector<double, pstlb::numa::first_touch_allocator<
                                  double, pstlb::exec::steal_policy>>
        v(std::size_t{1} << 16, 0.0,
          pstlb::numa::first_touch_allocator<double, pstlb::exec::steal_policy>{
              pstlb::exec::steal_policy{4}});
    EXPECT_EQ(v.size(), std::size_t{1} << 16);
  }
  trace::set_enabled(false);
  EXPECT_GT(regions_within(since, 2), 0u);
}

TEST_F(ArenaStress, ScratchBufferOomShedsToTheStdAlgorithm) {
  // The parallel paths that stage elements through an n-element scratch
  // buffer allocate it before any element moves. Under oom:1 that
  // allocation fails: each call, a samplesort included, must count exactly
  // one oom shed, throw nothing and return exactly what its std algorithm
  // returns.
  arena a(arena_cfg("scratch_oom", 8));
  arena::scoped_bind bind(&a);
  const auto policy = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
  // More than one scan chunk, so stable_partition, remove_if and unique pack.
  const std::size_t n = 4096;
  std::vector<long long> input(n);
  for (std::size_t i = 0; i < n; ++i) {
    input[i] = static_cast<long long>((i * 2654435761u) % 1000);
  }
  auto halves = input;  // two sorted runs with repeats (inplace_merge, unique)
  std::sort(halves.begin(), halves.begin() + n / 2);
  std::sort(halves.begin() + n / 2, halves.end());
  auto odd = [](long long x) { return x % 2 != 0; };
  // sort and stable_sort take samplesort from sample_sort_min elements up;
  // its two scratch buffers fail as one shed.
  std::vector<long long> large(static_cast<std::size_t>(pstlb::detail::sample_sort_min));
  for (std::size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<long long>((i * 2654435761u) % 100000);
  }

  struct outcome {
    std::vector<long long> values;
    std::ptrdiff_t at = 0;  // offset of the returned iterator
  };
  // Each case runs the pstlb algorithm when `par` is set, else the std one.
  const std::pair<const char*, std::function<outcome(bool)>> cases[] = {
      {"shift_left",
       [&](bool par) {
         auto v = input;
         auto it = par ? pstlb::shift_left(policy, v.begin(), v.end(), 100)
                       : std::shift_left(v.begin(), v.end(), 100);
         return outcome{v, it - v.begin()};
       }},
      {"shift_right",
       [&](bool par) {
         auto v = input;
         auto it = par ? pstlb::shift_right(policy, v.begin(), v.end(), 100)
                       : std::shift_right(v.begin(), v.end(), 100);
         return outcome{v, it - v.begin()};
       }},
      {"rotate",
       [&](bool par) {
         auto v = input;
         auto it = par ? pstlb::rotate(policy, v.begin(), v.begin() + 1000, v.end())
                       : std::rotate(v.begin(), v.begin() + 1000, v.end());
         return outcome{v, it - v.begin()};
       }},
      {"stable_partition",
       [&](bool par) {
         auto v = input;
         auto it = par ? pstlb::stable_partition(policy, v.begin(), v.end(), odd)
                       : std::stable_partition(v.begin(), v.end(), odd);
         return outcome{v, it - v.begin()};
       }},
      {"inplace_merge",
       [&](bool par) {
         auto v = halves;
         const auto middle = v.begin() + static_cast<std::ptrdiff_t>(n / 2);
         if (par) {
           pstlb::inplace_merge(policy, v.begin(), middle, v.end());
         } else {
           std::inplace_merge(v.begin(), middle, v.end());
         }
         return outcome{v, 0};
       }},
      // k = 1000 is above n / partial_sort_copy_seq_ratio, so the call sorts
      // a copy of the input instead of running std::partial_sort_copy.
      {"partial_sort_copy",
       [&](bool par) {
         std::vector<long long> out(1000);
         auto it = par ? pstlb::partial_sort_copy(policy, input.begin(), input.end(),
                                                  out.begin(), out.end())
                       : std::partial_sort_copy(input.begin(), input.end(),
                                                out.begin(), out.end());
         return outcome{out, it - out.begin()};
       }},
      // The tail past the returned position is unspecified; keep the kept part.
      {"remove_if",
       [&](bool par) {
         auto v = input;
         auto it = par ? pstlb::remove_if(policy, v.begin(), v.end(), odd)
                       : std::remove_if(v.begin(), v.end(), odd);
         return outcome{{v.begin(), it}, it - v.begin()};
       }},
      {"unique",
       [&](bool par) {
         auto v = halves;
         auto it = par ? pstlb::unique(policy, v.begin(), v.end())
                       : std::unique(v.begin(), v.end());
         return outcome{{v.begin(), it}, it - v.begin()};
       }},
      {"sort",
       [&](bool par) {
         auto v = large;
         if (par) {
           pstlb::sort(policy, v.begin(), v.end());
         } else {
           std::sort(v.begin(), v.end());
         }
         return outcome{v, 0};
       }},
      {"stable_sort",
       [&](bool par) {
         auto v = large;
         if (par) {
           pstlb::stable_sort(policy, v.begin(), v.end());
         } else {
           std::stable_sort(v.begin(), v.end());
         }
         return outcome{v, 0};
       }},
  };
  for (const auto& [name, run] : cases) {
    const outcome expected = run(false);
    const std::uint64_t shed_before = a.snapshot().shed_oom;
    fault::set("oom:1");
    outcome got;
    EXPECT_NO_THROW(got = run(true)) << name;
    fault::set(fault::spec{});
    EXPECT_EQ(got.values, expected.values) << name;
    EXPECT_EQ(got.at, expected.at) << name;
    EXPECT_EQ(a.snapshot().shed_oom, shed_before + 1) << name;
  }
}

TEST_F(ArenaStress, ExactlyOneExceptionPerCallerUnderFault) {
  // throw:1 makes the first executed chunk of every region throw. Each
  // caller must see exactly one exception per algorithm call (first-wins
  // capture, duplicates drained), process intact.
  arena a(arena_cfg("faulty", 8));
  fault::set("throw:1");
  std::atomic<int> wrong{0};
  std::vector<std::thread> users;
  for (unsigned u = 0; u < 16; ++u) {
    users.emplace_back([&a, u, &wrong] {
      arena::scoped_bind bind(&a);
      std::vector<long long> v(4096, static_cast<long long>(u));
      for (int round = 0; round < 3; ++round) {
        int seen = 0;
        try {
          auto policy = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
          pstlb::for_each(policy, v.begin(), v.end(), [](long long& x) { ++x; });
        } catch (const fault::injected_fault&) {
          ++seen;
        }
        if (seen != 1) { wrong.fetch_add(1); }
      }
    });
  }
  for (auto& user : users) { user.join(); }
  fault::set(fault::spec{});
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(ArenaStress, DefaultArenaCoversUnboundCallers) {
  // No explicit binding: dispatch admits against the process default arena.
  const auto before = arena::default_arena().snapshot();
  auto policy = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
  std::vector<long long> v(1 << 15);
  std::iota(v.begin(), v.end(), 0);
  const long long expected = std::accumulate(v.begin(), v.end(), 0LL);
  EXPECT_EQ(pstlb::reduce(policy, v.begin(), v.end(), 0LL), expected);
  const auto after = arena::default_arena().snapshot();
  EXPECT_GT(after.admitted + after.sequential_cap,
            before.admitted + before.sequential_cap);
}

}  // namespace

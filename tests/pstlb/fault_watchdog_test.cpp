// Fault-injection and hang-watchdog coverage: injected stalls must trip the
// watchdog within its contract (detection + cooperative cancellation inside
// 2x PSTLB_WATCHDOG_MS, diagnostics naming the stalled worker), a chunk that
// ignores cancellation must end the process with exit code 124, injected
// allocation failures must propagate cleanly out of the NUMA allocators, and
// the PSTLB_FAULT grammar must reject garbage.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "numa/first_touch_allocator.hpp"
#include "pstlb/fault.hpp"
#include "pstlb/pstlb.hpp"
#include "sched/cancel.hpp"
#include "sched/watchdog.hpp"
#include "support/policies.hpp"

namespace {

using pstlb::index_t;
namespace fault = pstlb::fault;
namespace watchdog = pstlb::sched::watchdog;

/// Every test disarms injection and the watchdog on exit, pass or fail —
/// leaked global state here would poison the rest of the suite.
class FaultWatchdog : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::set(fault::spec{});
    watchdog::set_timeout_ms(0);
  }
};

TEST_F(FaultWatchdog, ParseAcceptsTheDocumentedGrammar) {
  EXPECT_EQ(fault::parse("throw:0.25").mode, fault::kind::throw_);
  EXPECT_DOUBLE_EQ(fault::parse("throw:0.25").probability, 0.25);
  EXPECT_EQ(fault::parse("oom:1").mode, fault::kind::oom);
  EXPECT_EQ(fault::parse("stall:200").mode, fault::kind::stall);
  EXPECT_EQ(fault::parse("stall:200").stall_ms, 200u);
  EXPECT_EQ(fault::parse("spawnfail").mode, fault::kind::spawnfail);
  EXPECT_EQ(fault::parse("throw:0.5", 42).seed, 42u);
}

TEST_F(FaultWatchdog, ParseRejectsGarbageAsNone) {
  EXPECT_EQ(fault::parse("").mode, fault::kind::none);
  EXPECT_EQ(fault::parse("bogus").mode, fault::kind::none);
  EXPECT_EQ(fault::parse("throw:").mode, fault::kind::none);
  EXPECT_EQ(fault::parse("throw:-0.5").mode, fault::kind::none);
  EXPECT_EQ(fault::parse("stall:0").mode, fault::kind::none);
  EXPECT_EQ(fault::parse("stall:abc").mode, fault::kind::none);
  EXPECT_EQ(fault::parse("oom").mode, fault::kind::none);
}

TEST_F(FaultWatchdog, SeedKnobKeepsEvery64BitValue) {
  const char* const saved = std::getenv("PSTLB_FAULT_SEED");
  const std::string restore = saved != nullptr ? saved : "";
  // Zero and values beyond the thread-count bound (2^20) are seeds too.
  for (const std::uint64_t seed :
       {std::uint64_t{0}, (std::uint64_t{1} << 20) + 1,
        (std::uint64_t{1} << 32) + 5, ~std::uint64_t{0}}) {
    ::setenv("PSTLB_FAULT_SEED", std::to_string(seed).c_str(), 1);
    EXPECT_EQ(fault::env_seed(7), seed);
  }
  for (const char* garbage : {"", "abc", "-1", "12abc", "18446744073709551616"}) {
    ::setenv("PSTLB_FAULT_SEED", garbage, 1);
    EXPECT_EQ(fault::env_seed(7), 7u) << "'" << garbage << "'";
  }
  ::unsetenv("PSTLB_FAULT_SEED");
  EXPECT_EQ(fault::env_seed(7), 7u);
  if (saved != nullptr) { ::setenv("PSTLB_FAULT_SEED", restore.c_str(), 1); }
}

TEST_F(FaultWatchdog, InjectedThrowPropagatesAsInjectedFault) {
  fault::set("throw:1");
  auto policy = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
  std::vector<int> v(8192, 1);
  EXPECT_THROW(
      pstlb::for_each(policy, v.begin(), v.end(), [](int& x) { x += 1; }),
      fault::injected_fault);
  fault::set(fault::spec{});
  EXPECT_EQ(pstlb::reduce(policy, v.begin(), v.end(), 0), 8192);
}

TEST_F(FaultWatchdog, InjectedThrowIsDeterministicInTheSeed) {
  // Same seed -> same chunks drawn; different seed -> (at p=0.5, 4096
  // chunk starts) virtually certain to differ somewhere. The draw is a pure
  // hash, so equality is exact, not statistical.
  const fault::spec a = fault::parse("throw:0.5", 7);
  const fault::spec b = fault::parse("throw:0.5", 8);
  auto draws = [](const fault::spec& s) {
    fault::set(s);
    std::vector<bool> out;
    for (index_t begin = 0; begin < 4096; begin += 64) {
      bool threw = false;
      try {
        fault::on_chunk(begin);
      } catch (const fault::injected_fault&) {
        threw = true;
      }
      out.push_back(threw);
    }
    return out;
  };
  const auto first = draws(a);
  EXPECT_EQ(first, draws(a));
  EXPECT_NE(first, draws(b));
}

TEST_F(FaultWatchdog, InjectedOomPropagatesFromFirstTouchAllocator) {
  fault::set("oom:1");
  pstlb::numa::first_touch_allocator<double> alloc;
  EXPECT_THROW((void)alloc.allocate(1024), std::bad_alloc);
  fault::set(fault::spec{});
  double* p = alloc.allocate(1024);
  ASSERT_NE(p, nullptr);
  alloc.deallocate(p, 1024);
}

TEST_F(FaultWatchdog, WatchdogCancelsAnInjectedStallWithinTwiceTheInterval) {
  // Every chunk stalls for 30 s — far past the 1 s watchdog interval — but
  // polls the region's cancel token. The watchdog must diagnose, cancel,
  // and get the caller its watchdog_timeout within 2x the interval; without
  // the watchdog this launch would take 30 s minimum.
  constexpr unsigned interval_ms = 1000;
  watchdog::set_timeout_ms(interval_ms);
  fault::set("stall:30000");
  const std::uint64_t fired_before = watchdog::fired_count();
  auto policy = pstlb::test::make_eager(pstlb::backends::backend_id::steal, 4, 128);
  std::vector<int> v(1024, 1);
  ::testing::internal::CaptureStderr();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(
      pstlb::for_each(policy, v.begin(), v.end(), [](int& x) { x += 1; }),
      pstlb::sched::watchdog_timeout);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  const std::string dump = ::testing::internal::GetCapturedStderr();
  EXPECT_LT(elapsed.count(), 2 * interval_ms);
  EXPECT_GT(watchdog::fired_count(), fired_before);
  // The diagnostic names the wedged workers and their pool.
  EXPECT_NE(dump.find("stalled worker"), std::string::npos) << dump;
  EXPECT_NE(dump.find("steal"), std::string::npos) << dump;
  // The pool fully recovered: the stalled workers drained cooperatively.
  fault::set(fault::spec{});
  watchdog::set_timeout_ms(0);
  EXPECT_EQ(pstlb::reduce(policy, v.begin(), v.end(), 0), 1024);
}

TEST_F(FaultWatchdog, WatchdogStaysQuietOnHealthyProgress) {
  // Chunks complete continuously; a watchdog that counts wall time instead
  // of progress would fire spuriously here (total run >> interval).
  watchdog::set_timeout_ms(200);
  const std::uint64_t fired_before = watchdog::fired_count();
  auto policy = pstlb::test::make_eager(pstlb::backends::backend_id::omp_dynamic, 4, 8);
  std::vector<int> v(512, 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(600);
  long long total = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    total += pstlb::reduce(policy, v.begin(), v.end(), 0);
  }
  EXPECT_GT(total, 0);
  EXPECT_EQ(watchdog::fired_count(), fired_before);
}

TEST_F(FaultWatchdog, LongNestedLoopOfShortChunksKeepsTheEnclosingRegionQuiet) {
  // Outer chunk 0 runs one nested loop of 1 ms chunks for 4x the interval.
  // The outer region completes nothing meanwhile; its heartbeat moves only
  // because every nested chunk's beat also counts for the enclosing source.
  constexpr unsigned interval_ms = 200;
  watchdog::set_timeout_ms(interval_ms);
  const std::uint64_t fired_before = watchdog::fired_count();
  const auto outer = pstlb::test::make_eager(pstlb::backends::backend_id::fork_join, 2, 1);
  const auto inner = pstlb::test::make_eager(pstlb::backends::backend_id::omp_dynamic, 4, 1);
  std::vector<int> rows(2, 0);
  std::vector<int> cells(100000, 0);
  const auto t0 = std::chrono::steady_clock::now();
  const auto until = t0 + std::chrono::milliseconds(4 * interval_ms);
  pstlb::for_each(outer, rows.begin(), rows.end(), [&](int& row) {
    if (&row != &rows[0]) { return; }
    pstlb::for_each(inner, cells.begin(), cells.end(), [&](int&) {
      if (std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(4 * interval_ms));
  EXPECT_EQ(watchdog::fired_count(), fired_before);
}

TEST_F(FaultWatchdog, StalledNestedChunkGivesTheOutermostCallerOneTimeout) {
  // One nested chunk stalls (polling its region's cancel token) for at most
  // 6x the interval — under the 8x hard-exit rung. The watchdog cancels the
  // stalled nesting, and the outermost caller gets exactly one
  // watchdog_timeout.
  constexpr unsigned interval_ms = 200;
  watchdog::set_timeout_ms(interval_ms);
  const std::uint64_t fired_before = watchdog::fired_count();
  const auto outer = pstlb::test::make_eager(pstlb::backends::backend_id::fork_join, 2, 1);
  const auto inner = pstlb::test::make_eager(pstlb::backends::backend_id::steal, 4, 1);
  std::vector<int> rows(2, 0);
  std::vector<int> cells(64, 0);
  ::testing::internal::CaptureStderr();
  int timeouts = 0;
  int others = 0;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    pstlb::for_each(outer, rows.begin(), rows.end(), [&](int& row) {
      if (&row != &rows[0]) { return; }
      pstlb::for_each(inner, cells.begin(), cells.end(), [&](int& cell) {
        if (&cell != &cells[0]) { return; }
        const auto limit = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(6 * interval_ms);
        while (!pstlb::sched::current_cancel()->cancelled() &&
               std::chrono::steady_clock::now() < limit) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    });
  } catch (const pstlb::sched::watchdog_timeout&) {
    ++timeouts;
  } catch (...) {
    ++others;
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  const std::string dump = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(timeouts, 1) << dump;
  EXPECT_EQ(others, 0);
  EXPECT_GT(watchdog::fired_count(), fired_before);
  EXPECT_LT(elapsed, std::chrono::milliseconds(6 * interval_ms)) << "the stall was not cancelled";
}

TEST_F(FaultWatchdog, ChunkThatIgnoresCancellationHardExitsWith124) {
  // Both chunks sleep in 1 ms steps for up to 30 s and never poll the
  // cancel token, so the region stays silent after the watchdog cancels it.
  // 8 intervals later the watchdog ends the process with timeout(1)'s exit
  // code instead of letting it hang. The threadsafe style re-executes the
  // test binary for the child, so the parent's pool threads do not matter.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr unsigned interval_ms = 50;
  EXPECT_EXIT(
      {
        watchdog::set_timeout_ms(interval_ms);
        const auto policy =
            pstlb::test::make_eager(pstlb::backends::backend_id::fork_join, 2, 1);
        std::vector<int> v(2, 0);
        pstlb::for_each(policy, v.begin(), v.end(), [](int&) {
          const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (std::chrono::steady_clock::now() < until) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        });
      },
      ::testing::ExitedWithCode(124), "exiting to avoid a silent hang");
}

}  // namespace

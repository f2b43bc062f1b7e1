// Hang watchdog: a monitor thread that detects parallel regions making no
// progress and makes sure the process never hangs silently.
//
// Enabled by PSTLB_WATCHDOG_MS=<ms> (0 / unset = off). Every parallel region
// registers a watchdog::scope around its launch; completed chunks beat the
// region's cancel_source. When a registered region's heartbeat stalls for the
// configured interval the watchdog escalates:
//
//   1. diagnose — dump every in-flight chunk (worker, pool, element range,
//      busy time) to stderr, flagging workers stalled past the deadline, and
//      export a Perfetto trace when tracing is active;
//   2. cancel  — capture a watchdog_timeout into the region's cancel source,
//      so cooperative code (chunk boundaries, lookback spins, injected
//      stalls) drains and the caller gets exactly one exception;
//   3. hard-exit — if the region still makes no progress for 8x the interval
//      after cancellation (user code is wedged non-cooperatively), print a
//      final diagnostic and _exit(124), the code timeout(1) uses. An armed
//      watchdog always takes this rung: a process never hangs silently.
#pragma once

#include <atomic>
#include <cstdint>

#include "pstlb/common.hpp"
#include "sched/cancel.hpp"

namespace pstlb::sched {

/// The exception a watchdog cancellation delivers to the region's caller.
struct watchdog_timeout : std::runtime_error {
  using std::runtime_error::runtime_error;
};

namespace watchdog {

/// Active stall interval in ms; 0 = disabled. Initialized once from
/// PSTLB_WATCHDOG_MS, overridable programmatically (tests).
unsigned timeout_ms() noexcept;
void set_timeout_ms(unsigned ms) noexcept;

namespace detail {
extern std::atomic<bool> g_armed;  // timeout_ms() > 0, mirrored for hot paths
}

/// One relaxed load: the entire disabled-path cost of the chunk markers.
inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Registers a region (its heartbeat source and a human-readable pool label)
/// with the monitor for the duration of the launch. `label` must be a string
/// literal or otherwise outlive the scope.
class scope {
 public:
  scope(cancel_source& src, const char* label);
  ~scope();
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  void* entry_ = nullptr;  // null when the watchdog is disabled
};

/// Publishes "this thread is executing chunk [begin, end) of pool `pool`"
/// while alive, so the stall dump can name the wedged worker and its range.
/// `pool` must be a string literal. No-op (one relaxed load) when disarmed.
class chunk_mark {
 public:
  chunk_mark(const char* pool, unsigned tid, index_t begin, index_t end) noexcept;
  ~chunk_mark();
  chunk_mark(const chunk_mark&) = delete;
  chunk_mark& operator=(const chunk_mark&) = delete;

 private:
  void* slot_ = nullptr;  // null when disarmed at construction
};

/// Test hook: the number of times the watchdog fired (diagnose+cancel) since
/// process start.
std::uint64_t fired_count() noexcept;

}  // namespace watchdog
}  // namespace pstlb::sched

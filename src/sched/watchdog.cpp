#include "sched/watchdog.hpp"

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "pstlb/env.hpp"
#include "sched/arena.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

namespace pstlb::sched::watchdog {

namespace detail {
std::atomic<bool> g_armed{false};
}

namespace {

using clock = std::chrono::steady_clock;

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          clock::now().time_since_epoch())
          .count());
}

// -1 = not yet read from the environment.
std::atomic<long long> g_timeout_ms{-1};
std::atomic<std::uint64_t> g_fired{0};

/// Per-thread in-flight chunk descriptor. Single writer (the owning thread),
/// racy relaxed reads from the monitor — a torn range in a diagnostic dump is
/// acceptable, a lock on the chunk hot path is not.
struct worker_slot {
  std::atomic<const char*> pool{nullptr};  // string literal; null = idle
  std::atomic<unsigned> tid{0};
  std::atomic<index_t> begin{0};
  std::atomic<index_t> end{0};
  std::atomic<std::uint64_t> since_ms{0};
};

struct region_entry {
  cancel_source* src = nullptr;
  const char* label = nullptr;
  /// Arena that admitted this region (captured from the launching thread's
  /// binding), for per-arena stall attribution. Null outside any arena.
  arena* owner = nullptr;
  std::uint64_t last_progress = 0;
  std::uint64_t last_change_ms = 0;
  bool fired = false;
};

/// Monitor state. Intentionally leaked (like the trace registry) so worker
/// threads and the monitor can touch it during static destruction.
struct monitor_state {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<region_entry*> regions;
  std::vector<std::unique_ptr<worker_slot>> slots;
  bool thread_started = false;
};

monitor_state& state() {
  static monitor_state* s = new monitor_state();
  return *s;
}

worker_slot& local_slot() {
  thread_local worker_slot* slot = [] {
    auto owned = std::make_unique<worker_slot>();
    worker_slot* raw = owned.get();
    monitor_state& s = state();
    std::lock_guard lock(s.mutex);
    s.slots.push_back(std::move(owned));
    return raw;
  }();
  return *slot;
}

/// Dumps every in-flight chunk; workers busy past `stall_ms` are flagged as
/// stalled. Caller holds the monitor mutex (slot list is append-only, slot
/// fields are atomics).
void dump_workers(monitor_state& s, std::uint64_t stall_ms) {
  const std::uint64_t now = now_ms();
  bool any = false;
  for (const auto& slot : s.slots) {
    const char* pool = slot->pool.load(std::memory_order_acquire);
    if (pool == nullptr) { continue; }
    any = true;
    const std::uint64_t busy = now - slot->since_ms.load(std::memory_order_relaxed);
    std::fprintf(stderr,
                 "pstlb: watchdog:   %sworker %s/%u: chunk [%lld, %lld) busy %llu ms\n",
                 busy >= stall_ms ? "stalled " : "",
                 pool, slot->tid.load(std::memory_order_relaxed),
                 static_cast<long long>(slot->begin.load(std::memory_order_relaxed)),
                 static_cast<long long>(slot->end.load(std::memory_order_relaxed)),
                 static_cast<unsigned long long>(busy));
  }
  if (!any) {
    std::fprintf(stderr,
                 "pstlb: watchdog:   no chunk in flight (region blocked outside "
                 "user code)\n");
  }
}

void export_trace_dump() {
  if (!trace::enabled()) {
    std::fprintf(stderr,
                 "pstlb: watchdog:   set PSTLB_TRACE=1 for a Perfetto dump of "
                 "the stalled schedule\n");
    return;
  }
  const std::string path =
      trace::env_file().empty() ? "pstlb.watchdog.trace.json" : trace::env_file();
  if (trace::write_chrome_trace_file(path)) {
    std::fprintf(stderr, "pstlb: watchdog:   Perfetto trace written to %s\n",
                 path.c_str());
  }
}

void fire(monitor_state& s, region_entry& region, std::uint64_t interval_ms) {
  const std::uint64_t stalled = now_ms() - region.last_change_ms;
  std::fprintf(stderr,
               "pstlb: watchdog: region '%s'%s%s made no progress for %llu ms "
               "(%llu chunks completed) — diagnosing, then cancelling\n",
               region.label,
               region.owner != nullptr ? " in arena " : "",
               region.owner != nullptr ? region.owner->name().c_str() : "",
               static_cast<unsigned long long>(stalled),
               static_cast<unsigned long long>(region.last_progress));
  if (region.owner != nullptr) { region.owner->note_watchdog_fire(); }
  dump_workers(s, interval_ms);
  export_trace_dump();
  std::fprintf(stderr, "pstlb: watchdog: cancelling region '%s'\n", region.label);
  g_fired.fetch_add(1, std::memory_order_relaxed);
  region.src->capture(std::make_exception_ptr(watchdog_timeout(
      std::string("pstlb: watchdog: region '") + region.label +
      "' made no progress for " + std::to_string(stalled) + " ms")));
}

[[noreturn]] void hard_exit(monitor_state& s, region_entry& region,
                            std::uint64_t interval_ms) {
  std::fprintf(stderr,
               "pstlb: watchdog: region '%s' ignored cancellation (still no "
               "progress) — exiting to avoid a silent hang\n",
               region.label);
  dump_workers(s, interval_ms);
  std::fflush(nullptr);
  _exit(124);
}

void monitor_main() {
  monitor_state& s = state();
  std::unique_lock lock(s.mutex);
  for (;;) {
    const std::uint64_t interval = timeout_ms();
    const auto tick = std::chrono::milliseconds(
        interval == 0 ? 100 : std::max<std::uint64_t>(1, interval / 4));
    s.cv.wait_for(lock, tick);
    if (interval == 0) { continue; }
    const std::uint64_t now = now_ms();
    for (region_entry* region : s.regions) {
      const std::uint64_t p = region->src->progress();
      if (p != region->last_progress) {
        region->last_progress = p;
        region->last_change_ms = now;
        region->fired = false;
        continue;
      }
      if (now - region->last_change_ms < interval) { continue; }
      if (!region->fired) {
        fire(s, *region, interval);
        region->fired = true;
        region->last_change_ms = now;  // restart the clock for escalation
        continue;
      }
      // Cancellation is cooperative; a region that still shows no progress
      // 8 intervals after being cancelled is wedged in non-cooperative code.
      if (now - region->last_change_ms >= 8 * interval) {
        hard_exit(s, *region, interval);
      }
    }
  }
}

void ensure_monitor(monitor_state& s) {
  if (s.thread_started) { return; }
  s.thread_started = true;
  // Detached by design: the monitor parks on the leaked state's cv and must
  // outlive every pool (regions can register during static destruction).
  std::thread(monitor_main).detach();
}

}  // namespace

unsigned timeout_ms() noexcept {
  long long value = g_timeout_ms.load(std::memory_order_acquire);
  if (value < 0) {
    value = static_cast<long long>(env::unsigned_or("PSTLB_WATCHDOG_MS", 0));
    g_timeout_ms.store(value, std::memory_order_release);
    detail::g_armed.store(value > 0, std::memory_order_release);
  }
  return static_cast<unsigned>(value);
}

void set_timeout_ms(unsigned ms) noexcept {
  g_timeout_ms.store(static_cast<long long>(ms), std::memory_order_release);
  detail::g_armed.store(ms > 0, std::memory_order_release);
}

std::uint64_t fired_count() noexcept {
  return g_fired.load(std::memory_order_relaxed);
}

scope::scope(cancel_source& src, const char* label) {
  if (timeout_ms() == 0) { return; }
  // The scope is constructed on the launching thread, where dispatch's
  // arena binding is still active — capture it for stall attribution.
  auto* region = new region_entry{&src, label, arena::current(),
                                  src.progress(), now_ms(), false};
  monitor_state& s = state();
  {
    std::lock_guard lock(s.mutex);
    s.regions.push_back(region);
    ensure_monitor(s);
  }
  s.cv.notify_one();
  entry_ = region;
}

scope::~scope() {
  if (entry_ == nullptr) { return; }
  auto* region = static_cast<region_entry*>(entry_);
  monitor_state& s = state();
  {
    std::lock_guard lock(s.mutex);
    std::erase(s.regions, region);
  }
  delete region;
}

chunk_mark::chunk_mark(const char* pool, unsigned tid, index_t begin,
                       index_t end) noexcept {
  if (!armed()) { return; }
  worker_slot& slot = local_slot();
  slot.tid.store(tid, std::memory_order_relaxed);
  slot.begin.store(begin, std::memory_order_relaxed);
  slot.end.store(end, std::memory_order_relaxed);
  slot.since_ms.store(now_ms(), std::memory_order_relaxed);
  slot.pool.store(pool, std::memory_order_release);
  slot_ = &slot;
}

chunk_mark::~chunk_mark() {
  if (slot_ == nullptr) { return; }
  static_cast<worker_slot*>(slot_)->pool.store(nullptr, std::memory_order_release);
}

}  // namespace pstlb::sched::watchdog

// Deterministic fault injection (PSTLB_FAULT) — the test harness for every
// recovery path in the fault-tolerance layer.
//
// Modes (set PSTLB_FAULT, or call set() programmatically in tests):
//   throw:<p>    each chunk throws fault::injected_fault with probability p
//   oom:<p>      each tracked allocation throws std::bad_alloc with
//                probability p (first_touch_allocator, detail::scratch_buffer)
//   stall:<ms>   each chunk stalls for <ms> ms before running, polling the
//                region's cancel token so a watchdog cancellation ends the
//                stall early (this is what drives the watchdog tests)
//   spawnfail    every pool thread spawn throws std::system_error (drives the
//                partial-startup cleanup paths in the pools)
//   spawnfail:<n> only the first n spawn attempts throw — models a transient
//                EAGAIN storm that clears, driving the bounded-backoff spawn
//                retry (sched/spawn_retry.hpp)
//
// Decisions are a pure hash of (PSTLB_FAULT_SEED, site index), so a failing
// run replays identically: the same chunks throw, the same allocations fail.
// Disabled cost is one relaxed atomic load per hook.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "pstlb/common.hpp"

namespace pstlb::fault {

/// The exception `throw` mode injects into chunk bodies.
struct injected_fault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class kind : std::uint8_t { none, throw_, oom, stall, spawnfail };

struct spec {
  kind mode = kind::none;
  double probability = 0.0;   // throw / oom
  unsigned stall_ms = 0;      // stall
  unsigned spawn_fails = 0;   // spawnfail: 0 = every attempt, n = first n only
  std::uint64_t seed = 1;
};

/// Parses a PSTLB_FAULT value ("throw:0.01", "stall:200", ...). Unknown or
/// malformed text disables injection (mode none) — a typo must not change
/// benchmark behaviour silently, so the caller warns via stderr.
spec parse(std::string_view text, std::uint64_t seed = 1);

/// Replaces the active spec (tests); also resets the site counters.
void set(const spec& s);
void set(std::string_view text);

/// The active spec (first call parses PSTLB_FAULT / PSTLB_FAULT_SEED).
const spec& active() noexcept;

/// PSTLB_FAULT_SEED as a full 64-bit decimal value (0 included), or
/// `fallback` when unset or not a number that fits. Fault injection and the
/// steal victim RNG both seed from it.
std::uint64_t env_seed(std::uint64_t fallback);

namespace detail {
extern std::atomic<bool> g_armed;
}

/// One relaxed load: the entire disabled-path cost of every hook below.
inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Chunk-entry hook: throws injected_fault (throw mode, hash of `begin`
/// decides) or stalls cooperatively (stall mode). Call only when armed().
void on_chunk(index_t begin);

/// Allocation hook: throws std::bad_alloc with the configured probability
/// (oom mode; the site index is a process-wide allocation counter).
void on_alloc(std::size_t bytes);

/// Pool-spawn hook: throws std::system_error(EAGAIN) in spawnfail mode.
/// Pools call this immediately before each std::thread construction.
void on_spawn();

}  // namespace pstlb::fault

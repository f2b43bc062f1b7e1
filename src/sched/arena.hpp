// Multi-tenant task arenas: admission control, backpressure, and graceful
// degradation under concurrent-caller overload (DESIGN.md §17).
//
// The paper benchmarks one algorithm call owning the whole machine; a
// production process serves many concurrent `pstlb::` callers. Without
// arbitration those callers oversubscribe the machine (every region asks for
// every core) and turn the watchdog into a false-positive machine. The pool
// does not arbitrate: a region that finds workers busy gets fewer of them,
// down to its caller alone, instead of queueing (sched/thread_pool.hpp). The
// arena layer is the arbitration, and the only place a call waits, in the
// spirit of TBB's task_arena/market split:
//
//   - an arena is an admission domain with a max-concurrency cap: each
//     parallel call must acquire `granted >= 2` concurrency tokens before it
//     may launch a region, and the grant is its participant count;
//   - tokens are lent fairly between active regions: a caller's grant is
//     clamped to max(2, cap / (active regions + queued callers + 1)), so a
//     burst of callers degrades everyone's width gradually instead of
//     first-come-takes-all (the default arena is *elastic*: an uncontended
//     caller keeps the full width its policy requested, so a single caller
//     sees exactly the pre-arena behaviour on any host size);
//   - backpressure is explicit: when no tokens are free, callers wait in a
//     bounded FIFO queue (PSTLB_ARENA_MAX_PENDING); a full queue or an
//     admission wait exceeding the soft deadline (PSTLB_ARENA_DEADLINE_MS)
//     sheds the call to the sequential path — counted and rate-limit warned,
//     never an error, never a hang;
//   - graceful degradation: worker-spawn failure (EAGAIN storms) and
//     scratch-allocation failure (std::bad_alloc) inside a backend shed the
//     call to the sequential path the same way (see note_degradation);
//   - nested composition: a parallel call made from inside a chunk is not
//     admitted again — it rides the enclosing call's grant and runs as one
//     more pool region, on whatever workers are idle (or its caller alone),
//     still bound to this arena for attribution.
//
// Every `pstlb::` front-end funnels through exec::dispatch, which performs
// admission against arena::current() (a TLS binding installed by
// arena::scoped_bind) or the process-wide default arena. PSTLB_ARENA=0
// disables admission entirely (the pre-arena behaviour).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "pstlb/common.hpp"

namespace pstlb::sched {

/// How an admission request resolved. Everything except `parallel` means the
/// caller must take its sequential path.
enum class admit_outcome : std::uint8_t {
  parallel,        // granted >= 2 tokens; launch a region this wide
  sequential_cap,  // cap (or request) <= 1: arena policy says sequential
  shed_saturated,  // pending queue full — shed to sequential
  shed_deadline,   // admission wait exceeded the soft deadline — shed
};

/// Why a call degraded to the sequential path (shed counters + warning).
enum class shed_reason : std::uint8_t { saturated, deadline, spawnfail, oom };

/// Histogram resolution shared with the stats registry: bucket b counts
/// values in [2^b, 2^(b+1)) ns.
inline constexpr std::size_t arena_hist_buckets = 63;

/// Point-in-time copy of one arena's counters.
struct arena_snapshot {
  std::string name;
  unsigned cap = 0;
  std::uint64_t admitted = 0;        // parallel grants
  std::uint64_t completed = 0;       // parallel grants released
  std::uint64_t sequential_cap = 0;  // calls the cap policy sent sequential
  std::uint64_t shed_saturated = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_spawnfail = 0;
  std::uint64_t shed_oom = 0;
  std::uint64_t watchdog_fires = 0;  // stalls attributed to this arena
  std::uint64_t peak_pending = 0;    // high-water mark of the wait queue
  std::uint64_t calls = 0;           // per-call latency samples below
  std::uint64_t call_hist[arena_hist_buckets] = {};
  std::uint64_t wait_hist[arena_hist_buckets] = {};  // admission wait

  std::uint64_t shed_total() const noexcept {
    return shed_saturated + shed_deadline + shed_spawnfail + shed_oom;
  }
  /// Lower bound (2^bucket ns) of the bucket holding the q-th call.
  double call_quantile_ns(double q) const noexcept;
  double p50_ns() const noexcept { return call_quantile_ns(0.50); }
  double p95_ns() const noexcept { return call_quantile_ns(0.95); }
  double p99_ns() const noexcept { return call_quantile_ns(0.99); }
};

class arena {
 public:
  struct config {
    std::string name = "arena";
    /// Max concurrency tokens. <= 1 makes every call sequential (and is the
    /// documented no-deadlock floor) unless `elastic` is set.
    unsigned cap = 2;
    /// Bounded admission queue: callers beyond this shed to sequential.
    unsigned max_pending = 64;
    /// Soft admission deadline in ms; 0 = wait until granted.
    unsigned deadline_ms = 0;
    /// Elastic admission: an *uncontended* caller (no active region, no
    /// queue) is granted its full requested width even above `cap` — the
    /// pre-arena oversubscription a lone caller always had (a 4-thread
    /// policy on a 1-core host still runs 4 workers). Contended callers are
    /// trimmed and queued against `cap` exactly like a strict arena. The
    /// process default arena is elastic unless PSTLB_ARENA_CAP pins a hard
    /// cap; explicit arenas default to strict for predictable isolation.
    bool elastic = false;
  };

  explicit arena(config cfg);
  ~arena();
  arena(const arena&) = delete;
  arena& operator=(const arena&) = delete;

  /// RAII admission grant. Holding a `parallel` ticket means owning
  /// `granted()` concurrency tokens; destruction returns them and records
  /// the call latency. Move-only; must be destroyed on the admitting thread
  /// (it restores that thread's re-entrancy TLS).
  class ticket {
   public:
    ticket() = default;
    ticket(ticket&& other) noexcept { *this = std::move(other); }
    ticket& operator=(ticket&& other) noexcept;
    ~ticket() { release(); }

    admit_outcome outcome() const noexcept { return outcome_; }
    bool parallel() const noexcept {
      return outcome_ == admit_outcome::parallel;
    }
    unsigned granted() const noexcept { return granted_; }

   private:
    friend class arena;
    void release() noexcept;

    arena* owner_ = nullptr;
    admit_outcome outcome_ = admit_outcome::sequential_cap;
    unsigned granted_ = 1;
    unsigned tokens_ = 0;       // may be < granted_ on an elastic grant
    bool owns_tokens_ = false;  // re-entrant tickets reuse the outer grant
    std::uint64_t admit_ns_ = 0;
    arena* prev_holder_ = nullptr;    // TLS restore
    unsigned prev_granted_ = 0;
  };

  /// Requests admission for a region of up to `requested` participants.
  /// Never throws, never blocks past the configured deadline; the worst
  /// outcome is a shed to sequential. Re-entrant calls on a thread that
  /// already holds a ticket of this arena bypass the gate and reuse the
  /// outer grant (so front-ends composed of several dispatches cannot
  /// self-deadlock on their own tokens).
  ticket admit(unsigned requested);

  unsigned cap() const noexcept { return cap_; }
  const std::string& name() const noexcept { return name_; }

  /// Degradation accounting: bumps the per-reason shed counter and emits a
  /// rate-limited (~1/s) stderr warning.
  void count_shed(shed_reason reason) noexcept;
  /// Stall attribution: the watchdog calls this when a region admitted by
  /// this arena fires.
  void note_watchdog_fire() noexcept { watchdog_fires_.fetch_add(1, std::memory_order_relaxed); }

  arena_snapshot snapshot() const;
  /// Snapshots every live arena (stats-registry/bench export).
  static std::vector<arena_snapshot> snapshot_all();

  /// Process-wide shed counter across all arenas and un-attributed sheds
  /// (sort OOM fallbacks outside any arena). Observable by benches/CI.
  static std::uint64_t global_shed_count() noexcept;

  /// The arena bound to this thread, or nullptr. Bound by exec::dispatch
  /// around admitted regions (and on every participant of a region by
  /// thread_pool::run) so nested calls, sheds and the watchdog can attribute
  /// to it.
  static arena* current() noexcept;

  class scoped_bind {
   public:
    explicit scoped_bind(arena* a) noexcept;
    ~scoped_bind();
    scoped_bind(const scoped_bind&) = delete;
    scoped_bind& operator=(const scoped_bind&) = delete;

   private:
    arena* prev_;
  };

  /// The process-wide default arena: cap from PSTLB_ARENA_CAP (default:
  /// sched::default_width(), the width the global thread_pool is sized for),
  /// queue bound from PSTLB_ARENA_MAX_PENDING, deadline from
  /// PSTLB_ARENA_DEADLINE_MS. Intentionally leaked (late references during
  /// static destruction).
  static arena& default_arena();

  /// False when PSTLB_ARENA=0 (admission disabled). Overridable in tests.
  static bool admission_enabled() noexcept;
  static void set_admission_enabled(bool on) noexcept;

  /// Where exec::dispatch sends admission: the thread's bound arena if any,
  /// else the default arena, else nullptr when admission is disabled.
  static arena* admission_target();

 private:
  struct waiter;

  /// Fair grant width given current contention. Caller holds mutex_.
  unsigned fair_share_locked() const noexcept;
  /// Hands free tokens to queued callers, FIFO. Caller holds mutex_.
  void grant_waiters_locked();
  void finish(unsigned tokens, std::uint64_t admit_ns) noexcept;
  void record_wait(std::uint64_t ns) noexcept;
  void record_call(std::uint64_t ns) noexcept;

  const std::string name_;
  const unsigned cap_;
  const unsigned max_pending_;
  const unsigned deadline_ms_;
  const bool elastic_;

  mutable std::mutex mutex_;
  unsigned tokens_in_use_ = 0;   // guarded by mutex_
  unsigned active_regions_ = 0;  // guarded by mutex_
  std::deque<waiter*> waiters_;  // guarded by mutex_

  // Counters: relaxed atomics, read racily by snapshot().
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> sequential_cap_{0};
  std::atomic<std::uint64_t> shed_saturated_{0};
  std::atomic<std::uint64_t> shed_deadline_{0};
  std::atomic<std::uint64_t> shed_spawnfail_{0};
  std::atomic<std::uint64_t> shed_oom_{0};
  std::atomic<std::uint64_t> watchdog_fires_{0};
  std::atomic<std::uint64_t> peak_pending_{0};
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> call_hist_[arena_hist_buckets] = {};
  std::atomic<std::uint64_t> wait_hist_[arena_hist_buckets] = {};
  std::atomic<std::uint64_t> last_warn_ms_{0};
};

/// Degradation funnel for code that sheds outside admit() — backend setup
/// failures (spawn/alloc) and the sort OOM fallback ladder. Attributes to
/// the thread's bound arena when there is one, else to the process-wide
/// un-attributed counters. Never throws.
void note_degradation(shed_reason reason) noexcept;

}  // namespace pstlb::sched

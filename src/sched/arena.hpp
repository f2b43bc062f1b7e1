// Multi-tenant task arenas: admission, backpressure, and graceful
// degradation under concurrent-caller overload (DESIGN.md §17).
//
// The paper benchmarks one algorithm call owning the whole machine; a
// production process serves many concurrent `pstlb::` callers. Without
// arbitration those callers oversubscribe the machine (every region asks for
// every core) and turn the watchdog into a false-positive machine. The pool
// does not arbitrate: a region that finds workers busy gets fewer of them,
// down to its caller alone, instead of queueing (sched/thread_pool.hpp).
// Admission is the arbitration, and the only place a call waits, in the
// spirit of TBB's task_arena/market split:
//
//   - one process-wide ledger counts the cores held by parallel calls, out
//     of sched::default_width(). A call asks for `r` participants (its
//     policy's width after its arena's cap). When no call holds cores and
//     nobody waits it is granted all of `r` and charged min(r, width), so a
//     lone caller keeps the width its policy asked for on any host size.
//     When nobody waits and at least 2 cores are free it is granted
//     min(r, free). Otherwise it waits FIFO, and each release grants the
//     head of the queue by the same two rules. The grant is the call's
//     participant count;
//   - an arena is an attribution domain over that ledger: a name, its
//     admission and shed counters, call and wait histograms, watchdog
//     attribution, and a per-call width cap (cap <= 1 makes every call
//     sequential). No arena holds cores of its own;
//   - graceful degradation: worker-spawn failure (EAGAIN storms) and
//     scratch-allocation failure (std::bad_alloc) inside a backend shed the
//     call to the sequential path — counted and rate-limit warned, never an
//     error, never a hang (see note_degradation);
//   - nested composition: a parallel call made from inside a chunk is not
//     admitted again — it rides the enclosing call's grant and runs as one
//     more pool region, on whatever workers are idle (or its caller alone),
//     still bound to this arena for attribution.
//
// Every `pstlb::` front-end funnels through exec::dispatch, which performs
// admission against arena::current() (a TLS binding installed by
// arena::scoped_bind) or the process-wide default arena.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "pstlb/common.hpp"

namespace pstlb::sched {

/// How an admission request resolved.
enum class admit_outcome : std::uint8_t {
  parallel,        // granted >= 2 cores; launch a region this wide
  sequential_cap,  // cap (or request) <= 1: take the sequential path
};

/// Why a call degraded to the sequential path (shed counters + warning).
enum class shed_reason : std::uint8_t { spawnfail, oom };

/// Histogram resolution shared with the stats registry: bucket b counts
/// values in [2^b, 2^(b+1)) ns.
inline constexpr std::size_t arena_hist_buckets = 63;

/// Point-in-time copy of one arena's counters.
struct arena_snapshot {
  std::string name;
  unsigned cap = 0;                  // per-call width cap; arena::no_cap = none
  std::uint64_t admitted = 0;        // parallel grants
  std::uint64_t completed = 0;       // parallel grants released
  std::uint64_t sequential_cap = 0;  // calls the cap policy sent sequential
  std::uint64_t shed_spawnfail = 0;
  std::uint64_t shed_oom = 0;
  std::uint64_t watchdog_fires = 0;  // stalls attributed to this arena
  std::uint64_t peak_pending = 0;    // longest ledger queue a call here joined
  std::uint64_t calls = 0;           // per-call latency samples below
  std::uint64_t call_hist[arena_hist_buckets] = {};
  std::uint64_t wait_hist[arena_hist_buckets] = {};  // admission wait

  std::uint64_t shed_total() const noexcept { return shed_spawnfail + shed_oom; }
  /// Lower bound (2^bucket ns) of the bucket holding the q-th call.
  double call_quantile_ns(double q) const noexcept;
  double p50_ns() const noexcept { return call_quantile_ns(0.50); }
  double p95_ns() const noexcept { return call_quantile_ns(0.95); }
  double p99_ns() const noexcept { return call_quantile_ns(0.99); }
};

class arena {
 public:
  /// The `cap` of an arena that does not limit call width (the default
  /// arena's); snapshots and the stats export print it as this value.
  static constexpr unsigned no_cap = std::numeric_limits<unsigned>::max();

  struct config {
    std::string name = "arena";
    /// Per-call width cap: a call's request is clamped to it before the
    /// ledger sees it. <= 1 makes every call sequential.
    unsigned cap = 2;
  };

  explicit arena(config cfg);
  ~arena();
  arena(const arena&) = delete;
  arena& operator=(const arena&) = delete;

  /// RAII admission grant. A `parallel` ticket holds ledger cores for a
  /// region `granted()` wide, unless it rides its thread's held grant;
  /// destruction returns them and records the call latency. Move-only;
  /// must be destroyed on the admitting thread (it clears that thread's
  /// held-grant TLS).
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
    unsigned charged_ = 0;  // ledger cores held; 0 on a ridden grant
    std::uint64_t admit_ns_ = 0;
  };

  /// Requests admission for a region of up to `requested` participants,
  /// waiting FIFO on the process-wide ledger when it is busy. Never throws.
  /// A thread that already holds a grant (of any arena) does not queue: it
  /// rides that grant, min(request, held) wide, so front-ends composed of
  /// several dispatches cannot wait on cores their own thread holds.
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

  /// The process-wide default arena, named "default", with no cap.
  /// Intentionally leaked (late references during static destruction).
  static arena& default_arena();

  /// Where exec::dispatch sends admission: the thread's bound arena if any,
  /// else the default arena.
  static arena& admission_target();

 private:
  void finish(unsigned charged, std::uint64_t admit_ns) noexcept;
  void record_wait(std::uint64_t ns, std::uint64_t queued) noexcept;
  void record_call(std::uint64_t ns) noexcept;

  const std::string name_;
  const unsigned cap_;

  // Counters: relaxed atomics, read racily by snapshot().
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> sequential_cap_{0};
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
/// the thread's bound arena when there is one, else only to the process-wide
/// shed count. Never throws.
void note_degradation(shed_reason reason) noexcept;

}  // namespace pstlb::sched

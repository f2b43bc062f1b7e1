// Scheduler tracing & metrics layer (runtime-toggled, always compiled).
//
// The paper explains scaling gaps through aggregate hardware counters
// (Tables 3/4); this subsystem shows *where* the overhead lives: which
// threads sat idle, how many steal attempts failed, how chunk sizes evolved.
// Every scheduler substrate (sched/thread_pool, sched/steal_pool,
// sched/task_queue_pool) and chunk-executing backend records events here.
//
// Design constraints, in order:
//   1. Trace-off cost is one relaxed atomic load + branch per hook — the
//      fig3/fig5/fig6 numbers must not move when PSTLB_TRACE is unset.
//   2. Zero allocation on the hot path: each thread owns a fixed-capacity
//      event ring that overwrites its oldest entry when full. Rings are
//      created on a thread's first traced event and live for the process
//      (export at exit must still see rings of exited workers).
//   3. ThreadSanitizer-clean concurrent snapshots: ring slots are relaxed
//      atomics published by a per-slot sequence word, so an exporter can
//      read a ring while its owner keeps writing (torn reads are detected
//      via the sequence and dropped, never invented).
//
// Environment:
//   PSTLB_TRACE=1        enable at process start (tests/benches may also
//                        toggle programmatically via set_enabled)
//   PSTLB_TRACE_FILE=f   write a Chrome-trace/Perfetto JSON to `f` at exit
// Each thread's ring holds the last 2^14 events.
//
// Two consumers sit on top:
//   trace/chrome_trace — trace_event-format JSON (open in ui.perfetto.dev)
//   trace/sched_metrics — steal/idle/chunk accounting for bench reports
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pstlb/common.hpp"

namespace pstlb::trace {

enum class event_kind : std::uint8_t {
  chunk = 0,       // span: one chunk/task body executed; arg = element count
  idle = 1,        // span: worker had no work (spin, park, cv wait)
  region = 2,      // span: one fork-join slice / worker region
  lookback = 3,    // span: decoupled-lookback wait for a predecessor chunk
  steal_ok = 4,    // instant: successful steal; arg = victim tid
  spawn = 5,       // instant: heap-allocated task submitted (futures model)
  split = 6,       // instant: range split shed into a deque (steal model)
  phase = 7,       // span: one sort-pipeline phase; arg = phase ordinal
                   // (samplesort: 0 sample, 1 classify, 2 scatter, 3 buckets;
                   // mergesort: 0 block_sort, 1.. merge rounds)
};

/// Which scheduling substrate produced an event. `scan` marks the
/// decoupled-lookback skeleton, which runs *on top of* a pool but whose
/// chunk protocol is its own scheduling layer; `sort` likewise marks the
/// samplesort/mergesort pipelines, whose phase spans are emitted by the
/// orchestrating thread above whatever pool executes the chunks.
enum class pool_id : std::uint8_t {
  none = 0,
  fork_join = 1,
  steal = 2,
  task_queue = 3,
  scan = 4,
  sort = 5,
};

struct event {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;  // == begin_ns for instant events
  std::uint64_t arg = 0;
  /// Causal-link word (0 = unlinked). Chunk/lookback spans carry the task
  /// identity (link_task of the chunk/ticket index); split and steal
  /// instants carry the shed/stolen chunk range (link_range), so the span
  /// graph (trace/analysis) can reconstruct spawn, steal and lookback edges
  /// without a per-pool tid mapping.
  std::uint64_t link = 0;
  event_kind kind = event_kind::chunk;
  pool_id pool = pool_id::none;
};

/// Task-identity link: chunk/ticket index `id`, biased by 1 so 0 stays
/// "unlinked". A spawn instant and the chunk span it produced share this
/// value.
inline constexpr std::uint64_t link_task(std::uint64_t id) noexcept {
  return id + 1;
}

/// Chunk-range link for split/steal instants: [begin, end) packed as
/// begin+1 in the low 32 bits and end in the high 32. A steal whose stolen
/// range equals a split's shed range consumed that split's work.
inline constexpr std::uint64_t link_range(std::uint32_t begin,
                                          std::uint32_t end) noexcept {
  return (static_cast<std::uint64_t>(begin) + 1) |
         (static_cast<std::uint64_t>(end) << 32);
}

/// Log2 chunk-size histogram resolution (bucket b counts sizes in
/// [2^b, 2^(b+1)); sizes >= 2^47 saturate into the last bucket).
inline constexpr std::size_t hist_buckets = 48;

/// Monotonic per-thread scheduler counters. Unlike ring events these are
/// never overwritten, so sched_metrics stays exact regardless of ring
/// capacity. All relaxed: single writer (the owning thread), racy-read
/// snapshots are fine for accounting.
struct alignas(cache_line_size) ring_counters {
  std::atomic<std::uint64_t> steals_ok{0};
  std::atomic<std::uint64_t> steals_failed{0};
  std::atomic<std::uint64_t> tasks_spawned{0};
  std::atomic<std::uint64_t> range_splits{0};
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<std::uint64_t> chunk_elems{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> idle_ns{0};
  std::atomic<std::uint64_t> chunk_hist[hist_buckets] = {};
};

/// Fixed-capacity overwrite-oldest event ring. One per thread (see
/// local_ring()); direct construction is for tests. push() is wait-free and
/// allocation-free; snapshot() may run concurrently from any thread.
class event_ring {
 public:
  /// Capacity is rounded up to a power of two (min 8).
  explicit event_ring(std::size_t capacity);

  event_ring(const event_ring&) = delete;
  event_ring& operator=(const event_ring&) = delete;

  void push(const event& e) noexcept;

  /// Copies the currently retained events, oldest first. Events whose slot
  /// is mid-overwrite are skipped, never returned torn.
  std::vector<event> snapshot() const;

  /// Total events ever pushed (monotonic; exceeds capacity() on overwrite).
  std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const noexcept { return mask_ + 1; }

  std::uint32_t id() const noexcept { return id_; }
  void set_label(std::string label);
  std::string label() const;

  ring_counters counters;

 private:
  friend class registry;

  struct slot {
    std::atomic<std::uint64_t> seq{0};  // index+1 once the payload is valid
    std::atomic<std::uint64_t> begin_ns{0};
    std::atomic<std::uint64_t> end_ns{0};
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint64_t> link{0};
    std::atomic<std::uint64_t> meta{0};  // kind | pool<<8
  };

  std::vector<slot> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::uint32_t id_ = 0;

  mutable std::mutex label_mutex_;
  std::string label_;
};

/// Process-wide ring registry: every thread's ring, in creation order.
/// Intentionally leaked so the at-exit exporter can read rings after
/// static destruction started.
class registry {
 public:
  static registry& instance();

  /// Registers a new ring of 2^14 events.
  event_ring& create_ring();

  /// Stable snapshot of all rings (rings are never destroyed).
  std::vector<event_ring*> rings() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<event_ring>> rings_;
};

/// The calling thread's ring (created and registered on first use).
event_ring& local_ring();

namespace detail {
// The one word every hook reads. Relaxed: toggling tracing is not a
// synchronization point; hooks that race with a toggle harmlessly record
// or skip one event.
inline std::atomic<bool> g_enabled{false};

void record_span_slow(pool_id p, event_kind k, std::uint64_t begin_ns,
                      std::uint64_t end_ns, std::uint64_t arg,
                      std::uint64_t link) noexcept;
void record_instant_slow(pool_id p, event_kind k, std::uint64_t arg,
                         std::uint64_t link) noexcept;
void count_failed_steal() noexcept;
}  // namespace detail

/// True when tracing is active. This load + branch is the entire trace-off
/// hot path of every hook below.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept;

/// Nanoseconds since the process trace epoch (steady clock).
std::uint64_t now_ns() noexcept;

/// Timestamp helper for span hooks: now_ns() when tracing, 0 when off.
/// Callers treat 0 as "span not armed" so a disabled hook never calls the
/// clock.
inline std::uint64_t span_begin() noexcept {
  return enabled() ? now_ns() : 0;
}

/// Records a [begin_ns, now] span. `begin_ns == 0` (unarmed, tracing was
/// off at span start) is a no-op; spans armed before a mid-run disable are
/// dropped too.
inline void record_span(pool_id p, event_kind k, std::uint64_t begin_ns,
                        std::uint64_t arg = 0, std::uint64_t link = 0) noexcept {
  if (begin_ns == 0 || !enabled()) { return; }
  detail::record_span_slow(p, k, begin_ns, now_ns(), arg, link);
}

/// Steal-event arg layout: low 32 bits hold the victim tid; bit 32 marks a
/// cross-NUMA-node (remote) steal. The native steal rule picks victims
/// uniformly and never sets it; imported traces (trace_reader's `remote`
/// arg) may, and span_graph counts them.
inline constexpr std::uint64_t steal_remote_bit = std::uint64_t{1} << 32;

/// A successful steal is a ring event and a count; a failed one is only
/// counted (`steals_failed`): a thief retries until the loop drains, so its
/// failures would flood the ring, and the idle span around them already
/// records the out-of-work interval.
inline void count_steal(pool_id p, bool ok, unsigned victim,
                        std::uint64_t link = 0) noexcept {
  if (!enabled()) { return; }
  if (!ok) {
    detail::count_failed_steal();
    return;
  }
  detail::record_instant_slow(p, event_kind::steal_ok,
                              static_cast<std::uint64_t>(victim), link);
}

inline void count_spawn(pool_id p, std::uint64_t link = 0) noexcept {
  if (!enabled()) { return; }
  detail::record_instant_slow(p, event_kind::spawn, 0, link);
}

inline void count_split(pool_id p, std::uint64_t link = 0) noexcept {
  if (!enabled()) { return; }
  detail::record_instant_slow(p, event_kind::split, 0, link);
}

/// Labels the calling thread's Perfetto track ("pool worker 3", ...).
/// First label wins; workers call this once at thread start.
void set_thread_label(std::string_view label);

/// Cheap process-wide counter sums (no event copies, no labels) for
/// windowed accounting in counters::region. All zeros while tracing is off.
struct sched_totals {
  std::uint64_t steals_ok = 0;
  std::uint64_t steals_failed = 0;
  std::uint64_t tasks_spawned = 0;
  std::uint64_t chunks = 0;
};
sched_totals totals() noexcept;

/// Perfetto counter-track samples: low-rate time series shown as value
/// tracks next to the span tracks ("ph":"C" in the Chrome-trace export).
/// The hardware-counter provider's sampler feeds these (instructions/s,
/// IPC, cache-miss rate) while tracing is on. Unlike ring events the store
/// is append-only and mutex-guarded — writers are ~100 Hz samplers, never
/// scheduler hot paths.
struct counter_sample {
  std::uint64_t ts_ns = 0;  // process trace epoch, as for events
  double value = 0;
};

/// Appends a sample to `series` (timestamped now). No-op while tracing is
/// off.
void record_counter_sample(std::string_view series, double value);

/// Snapshot of every series, name-ordered.
std::vector<std::pair<std::string, std::vector<counter_sample>>> counter_series();

/// Human-readable names for exporters.
std::string_view kind_name(event_kind k) noexcept;
std::string_view pool_name(pool_id p) noexcept;

}  // namespace pstlb::trace

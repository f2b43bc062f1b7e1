#include "trace/trace.hpp"

#include <bit>
#include <chrono>
#include <cstdlib>
#include <map>

#include "pstlb/env.hpp"
#include "trace/chrome_trace.hpp"

namespace pstlb::trace {

namespace {

std::uint64_t steady_now_raw() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process trace epoch, fixed at first use so exported timestamps are small.
std::uint64_t epoch_ns() {
  static const std::uint64_t epoch = steady_now_raw();
  return epoch;
}

/// Events per thread ring: 2^14 slots of 48 bytes, 768 KiB per traced thread.
constexpr std::size_t ring_capacity = std::size_t{1} << 14;

std::size_t hist_bucket(std::uint64_t elems) {
  const std::size_t b =
      elems == 0 ? 0 : static_cast<std::size_t>(std::bit_width(elems) - 1);
  return b < hist_buckets ? b : hist_buckets - 1;
}

// Reads PSTLB_TRACE at static-init time (before any pool thread can exist)
// and registers the at-exit exporter. Programmatic set_enabled() still works
// either way.
struct env_init {
  env_init() {
    epoch_ns();  // pin the epoch before any worker races to it
    env::warn_unknown_once();
    if (env::truthy("PSTLB_TRACE")) {
      detail::g_enabled.store(true, std::memory_order_relaxed);
    }
    if (!env_file().empty()) {
      std::atexit([] { export_to_env_file(); });
    }
  }
};
env_init g_env_init;

// Counter-track sample store. Guarded + leaked like the ring registry: the
// at-exit exporter reads it after static destruction began.
struct sample_store {
  std::mutex mutex;
  std::map<std::string, std::vector<counter_sample>> series;
};
sample_store& samples() {
  static sample_store* s = new sample_store;
  return *s;
}

}  // namespace

event_ring::event_ring(std::size_t capacity) {
  const std::size_t cap = std::bit_ceil(capacity < 8 ? std::size_t{8} : capacity);
  slots_ = std::vector<slot>(cap);
  mask_ = cap - 1;
}

void event_ring::push(const event& e) noexcept {
  const std::uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  slot& s = slots_[static_cast<std::size_t>(idx) & mask_];
  // Invalidate, write payload, publish: a concurrent snapshot either sees
  // seq == idx+1 with a fully written payload or skips the slot.
  s.seq.store(0, std::memory_order_relaxed);
  s.begin_ns.store(e.begin_ns, std::memory_order_relaxed);
  s.end_ns.store(e.end_ns, std::memory_order_relaxed);
  s.arg.store(e.arg, std::memory_order_relaxed);
  s.link.store(e.link, std::memory_order_relaxed);
  s.meta.store(static_cast<std::uint64_t>(e.kind) |
                   (static_cast<std::uint64_t>(e.pool) << 8),
               std::memory_order_relaxed);
  s.seq.store(idx + 1, std::memory_order_release);
}

std::vector<event> event_ring::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = capacity();
  const std::uint64_t first = head > cap ? head - cap : 0;
  std::vector<event> out;
  out.reserve(static_cast<std::size_t>(head - first));
  for (std::uint64_t i = first; i < head; ++i) {
    const slot& s = slots_[static_cast<std::size_t>(i) & mask_];
    if (s.seq.load(std::memory_order_acquire) != i + 1) { continue; }
    event e;
    e.begin_ns = s.begin_ns.load(std::memory_order_relaxed);
    e.end_ns = s.end_ns.load(std::memory_order_relaxed);
    e.arg = s.arg.load(std::memory_order_relaxed);
    e.link = s.link.load(std::memory_order_relaxed);
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    // Re-validate: if the owner lapped us mid-copy the payload may mix two
    // events — drop it rather than export garbage.
    if (s.seq.load(std::memory_order_acquire) != i + 1) { continue; }
    e.kind = static_cast<event_kind>(meta & 0xFF);
    e.pool = static_cast<pool_id>((meta >> 8) & 0xFF);
    out.push_back(e);
  }
  return out;
}

void event_ring::set_label(std::string label) {
  std::lock_guard lock(label_mutex_);
  if (label_.empty()) { label_ = std::move(label); }
}

std::string event_ring::label() const {
  std::lock_guard lock(label_mutex_);
  return label_;
}

registry& registry::instance() {
  // Leaked: the at-exit exporter must outlive static destruction.
  static registry* r = new registry;
  return *r;
}

event_ring& registry::create_ring() {
  std::lock_guard lock(mutex_);
  auto ring = std::make_unique<event_ring>(ring_capacity);
  ring->id_ = static_cast<std::uint32_t>(rings_.size());
  rings_.push_back(std::move(ring));
  return *rings_.back();
}

std::vector<event_ring*> registry::rings() const {
  std::lock_guard lock(mutex_);
  std::vector<event_ring*> out;
  out.reserve(rings_.size());
  for (const auto& r : rings_) { out.push_back(r.get()); }
  return out;
}

event_ring& local_ring() {
  thread_local event_ring* ring = &registry::instance().create_ring();
  return *ring;
}

void set_enabled(bool on) noexcept {
  if (on) { epoch_ns(); }  // never hand out timestamps from a moving epoch
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept { return steady_now_raw() - epoch_ns(); }

void set_thread_label(std::string_view label) {
  local_ring().set_label(std::string(label));
}

void record_counter_sample(std::string_view series, double value) {
  if (!enabled()) { return; }
  const std::uint64_t ts = now_ns();
  sample_store& store = samples();
  std::lock_guard lock(store.mutex);
  store.series[std::string(series)].push_back(counter_sample{ts, value});
}

std::vector<std::pair<std::string, std::vector<counter_sample>>> counter_series() {
  sample_store& store = samples();
  std::lock_guard lock(store.mutex);
  std::vector<std::pair<std::string, std::vector<counter_sample>>> out;
  out.reserve(store.series.size());
  for (const auto& [name, values] : store.series) { out.emplace_back(name, values); }
  return out;
}

sched_totals totals() noexcept {
  sched_totals out;
  if (!enabled()) { return out; }
  for (event_ring* ring : registry::instance().rings()) {
    const ring_counters& c = ring->counters;
    out.steals_ok += c.steals_ok.load(std::memory_order_relaxed);
    out.steals_failed += c.steals_failed.load(std::memory_order_relaxed);
    out.tasks_spawned += c.tasks_spawned.load(std::memory_order_relaxed);
    out.chunks += c.chunks.load(std::memory_order_relaxed);
  }
  return out;
}

namespace detail {

void record_span_slow(pool_id p, event_kind k, std::uint64_t begin_ns,
                      std::uint64_t end_ns, std::uint64_t arg,
                      std::uint64_t link) noexcept {
  event_ring& ring = local_ring();
  const std::uint64_t dur = end_ns > begin_ns ? end_ns - begin_ns : 0;
  switch (k) {
    case event_kind::chunk:
      ring.counters.chunks.fetch_add(1, std::memory_order_relaxed);
      ring.counters.chunk_elems.fetch_add(arg, std::memory_order_relaxed);
      ring.counters.chunk_hist[hist_bucket(arg)].fetch_add(
          1, std::memory_order_relaxed);
      ring.counters.busy_ns.fetch_add(dur, std::memory_order_relaxed);
      break;
    case event_kind::idle:
    case event_kind::lookback:
      ring.counters.idle_ns.fetch_add(dur, std::memory_order_relaxed);
      break;
    default:
      break;  // region spans: busy time is accounted by their chunks
  }
  ring.push(event{begin_ns, end_ns, arg, link, k, p});
}

void record_instant_slow(pool_id p, event_kind k, std::uint64_t arg,
                         std::uint64_t link) noexcept {
  event_ring& ring = local_ring();
  switch (k) {
    case event_kind::steal_ok:
      ring.counters.steals_ok.fetch_add(1, std::memory_order_relaxed);
      break;
    case event_kind::spawn:
      ring.counters.tasks_spawned.fetch_add(1, std::memory_order_relaxed);
      break;
    case event_kind::split:
      ring.counters.range_splits.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  const std::uint64_t now = now_ns();
  ring.push(event{now, now, arg, link, k, p});
}

void count_failed_steal() noexcept {
  local_ring().counters.steals_failed.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

std::string_view kind_name(event_kind k) noexcept {
  switch (k) {
    case event_kind::chunk: return "chunk";
    case event_kind::idle: return "idle";
    case event_kind::region: return "region";
    case event_kind::lookback: return "lookback";
    case event_kind::steal_ok: return "steal_ok";
    case event_kind::spawn: return "spawn";
    case event_kind::split: return "split";
    case event_kind::phase: return "phase";
  }
  return "unknown";
}

std::string_view pool_name(pool_id p) noexcept {
  switch (p) {
    case pool_id::none: return "none";
    case pool_id::fork_join: return "fork_join";
    case pool_id::steal: return "steal";
    case pool_id::task_queue: return "task_queue";
    case pool_id::scan: return "scan";
    case pool_id::sort: return "sort";
  }
  return "unknown";
}

}  // namespace pstlb::trace

#include "trace/sched_metrics.hpp"

#include <algorithm>

namespace pstlb::trace {

namespace {

std::uint64_t sat_sub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

double percentile_from_hist(const std::uint64_t (&hist)[hist_buckets],
                            double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t count : hist) { total += count; }
  if (total == 0) { return 0; }
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < hist_buckets; ++b) {
    cumulative += hist[b];
    if (static_cast<double>(cumulative) >= target && hist[b] > 0) {
      return static_cast<double>(std::uint64_t{1} << b);
    }
  }
  return static_cast<double>(std::uint64_t{1} << (hist_buckets - 1));
}

template <class Field>
std::uint64_t sum_threads(const sched_metrics& m, Field field) {
  std::uint64_t total = 0;
  for (const thread_metrics& t : m.threads) { total += field(t); }
  return total;
}

}  // namespace

double thread_metrics::busy_fraction() const {
  const double observed = busy_s + idle_s;
  return observed > 0 ? busy_s / observed : 0;
}

std::uint64_t sched_metrics::steals_ok() const {
  return sum_threads(*this, [](const thread_metrics& t) { return t.steals_ok; });
}
std::uint64_t sched_metrics::steals_failed() const {
  return sum_threads(*this,
                     [](const thread_metrics& t) { return t.steals_failed; });
}
std::uint64_t sched_metrics::tasks_spawned() const {
  return sum_threads(*this,
                     [](const thread_metrics& t) { return t.tasks_spawned; });
}
std::uint64_t sched_metrics::range_splits() const {
  return sum_threads(*this,
                     [](const thread_metrics& t) { return t.range_splits; });
}
std::uint64_t sched_metrics::chunks() const {
  return sum_threads(*this, [](const thread_metrics& t) { return t.chunks; });
}
std::uint64_t sched_metrics::chunk_elems() const {
  return sum_threads(*this,
                     [](const thread_metrics& t) { return t.chunk_elems; });
}
double sched_metrics::busy_s() const {
  double total = 0;
  for (const thread_metrics& t : threads) { total += t.busy_s; }
  return total;
}
double sched_metrics::idle_s() const {
  double total = 0;
  for (const thread_metrics& t : threads) { total += t.idle_s; }
  return total;
}

double sched_metrics::chunk_size_p50() const {
  return percentile_from_hist(chunk_hist, 0.50);
}
double sched_metrics::chunk_size_p95() const {
  return percentile_from_hist(chunk_hist, 0.95);
}

double sched_metrics::load_imbalance() const {
  double max_busy = 0;
  double total_busy = 0;
  unsigned active = 0;
  for (const thread_metrics& t : threads) {
    if (t.busy_s <= 0) { continue; }
    max_busy = std::max(max_busy, t.busy_s);
    total_busy += t.busy_s;
    ++active;
  }
  if (active == 0) { return 0; }
  return max_busy / (total_busy / static_cast<double>(active));
}

sched_metrics collect() {
  sched_metrics out;
  for (event_ring* ring : registry::instance().rings()) {
    const ring_counters& c = ring->counters;
    thread_metrics t;
    t.ring_id = ring->id();
    t.label = ring->label();
    t.steals_ok = c.steals_ok.load(std::memory_order_relaxed);
    t.steals_failed = c.steals_failed.load(std::memory_order_relaxed);
    t.tasks_spawned = c.tasks_spawned.load(std::memory_order_relaxed);
    t.range_splits = c.range_splits.load(std::memory_order_relaxed);
    t.chunks = c.chunks.load(std::memory_order_relaxed);
    t.chunk_elems = c.chunk_elems.load(std::memory_order_relaxed);
    t.busy_s = static_cast<double>(c.busy_ns.load(std::memory_order_relaxed)) * 1e-9;
    t.idle_s = static_cast<double>(c.idle_ns.load(std::memory_order_relaxed)) * 1e-9;
    for (std::size_t b = 0; b < hist_buckets; ++b) {
      out.chunk_hist[b] += c.chunk_hist[b].load(std::memory_order_relaxed);
    }
    out.threads.push_back(std::move(t));
  }
  std::sort(out.threads.begin(), out.threads.end(),
            [](const thread_metrics& a, const thread_metrics& b) {
              return a.ring_id < b.ring_id;
            });
  return out;
}

sched_metrics delta(const sched_metrics& before, const sched_metrics& after) {
  sched_metrics out;
  for (const thread_metrics& a : after.threads) {
    const auto it =
        std::find_if(before.threads.begin(), before.threads.end(),
                     [&](const thread_metrics& b) { return b.ring_id == a.ring_id; });
    thread_metrics d = a;
    if (it != before.threads.end()) {
      d.steals_ok = sat_sub(a.steals_ok, it->steals_ok);
      d.steals_failed = sat_sub(a.steals_failed, it->steals_failed);
      d.tasks_spawned = sat_sub(a.tasks_spawned, it->tasks_spawned);
      d.range_splits = sat_sub(a.range_splits, it->range_splits);
      d.chunks = sat_sub(a.chunks, it->chunks);
      d.chunk_elems = sat_sub(a.chunk_elems, it->chunk_elems);
      d.busy_s = std::max(0.0, a.busy_s - it->busy_s);
      d.idle_s = std::max(0.0, a.idle_s - it->idle_s);
    }
    out.threads.push_back(std::move(d));
  }
  for (std::size_t b = 0; b < hist_buckets; ++b) {
    out.chunk_hist[b] = sat_sub(after.chunk_hist[b], before.chunk_hist[b]);
  }
  return out;
}

}  // namespace pstlb::trace

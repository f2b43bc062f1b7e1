#include "sched/arena.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>

#include "sched/thread_pool.hpp"

namespace pstlb::sched {
namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t hist_bucket(std::uint64_t ns) noexcept {
  const std::size_t b = ns == 0 ? 0 : static_cast<std::size_t>(std::bit_width(ns)) - 1;
  return b < arena_hist_buckets ? b : arena_hist_buckets - 1;
}

const char* reason_name(shed_reason reason) noexcept {
  switch (reason) {
    case shed_reason::spawnfail: return "worker spawn failed";
    case shed_reason::oom: return "scratch allocation failed";
  }
  return "unknown";
}

// Live-arena registry for snapshot_all(); arenas register for their lifetime.
std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}
std::vector<arena*>& registry() {
  static std::vector<arena*> r;
  return r;
}

thread_local arena* tls_current = nullptr;
// Width of the grant this thread holds (0 = none), so a dispatch nested on
// the holding thread rides it instead of queueing behind its own cores.
thread_local unsigned tls_granted = 0;

std::atomic<std::uint64_t> g_total_sheds{0};
std::atomic<std::uint64_t> g_last_warn_ms{0};

/// ~1/s per limiter; returns true when this call may print.
bool warn_budget(std::atomic<std::uint64_t>& last_warn_ms) noexcept {
  const std::uint64_t now_ms = now_ns() / 1000000u;
  std::uint64_t last = last_warn_ms.load(std::memory_order_relaxed);
  return (now_ms - last >= 1000 || last == 0) &&
         last_warn_ms.compare_exchange_strong(last, now_ms,
                                              std::memory_order_relaxed);
}

/// The process-wide ledger of cores held by parallel calls, out of
/// default_width(). Every arena admits against it (rules in arena.hpp).
class core_ledger {
 public:
  struct grant {
    unsigned width = 0;      // participants granted
    unsigned charged = 0;    // cores charged to the ledger (<= width)
    std::size_t queued = 0;  // queue length joined; 0 when granted at once
  };

  /// Grants `r >= 2` participants, waiting FIFO while the ledger is busy.
  grant acquire(unsigned r) {
    std::unique_lock lock(mutex_);
    grant g;
    if (waiters_.empty() && try_grant_locked(r, g)) { return g; }
    waiter w;
    w.requested = r;
    waiters_.push_back(&w);
    const std::size_t queued = waiters_.size();
    w.cv.wait(lock, [&w] { return w.done; });
    w.g.queued = queued;
    return w.g;
  }

  /// Returns a grant's cores and hands them to the queue, FIFO.
  void release(unsigned charged) noexcept {
    std::lock_guard lock(mutex_);
    held_ -= charged;
    --holders_;
    while (!waiters_.empty()) {
      waiter* w = waiters_.front();
      if (!try_grant_locked(w->requested, w->g)) { return; }
      waiters_.pop_front();
      w->done = true;
      w->cv.notify_one();
    }
  }

 private:
  struct waiter {
    unsigned requested = 0;
    grant g;  // set by the granter before done flips
    bool done = false;
    std::condition_variable cv;
  };

  /// The two grant rules. Caller holds mutex_.
  bool try_grant_locked(unsigned r, grant& g) noexcept {
    if (holders_ == 0) {
      // A lone caller keeps its full request; only the ledger's width is
      // charged, so contention accounting stays bounded.
      g.width = r;
      g.charged = std::min(r, width_);
    } else if (width_ - held_ >= 2) {
      g.width = g.charged = std::min(r, width_ - held_);
    } else {
      return false;
    }
    held_ += g.charged;
    ++holders_;
    return true;
  }

  const unsigned width_ = default_width();
  std::mutex mutex_;
  unsigned held_ = 0;            // guarded by mutex_
  unsigned holders_ = 0;         // guarded by mutex_
  std::deque<waiter*> waiters_;  // guarded by mutex_
};

/// Leaked like the default arena: tickets may be released during static
/// destruction.
core_ledger& ledger() {
  static core_ledger* instance = new core_ledger;
  return *instance;
}

}  // namespace

double arena_snapshot::call_quantile_ns(double q) const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t c : call_hist) { total += c; }
  if (total == 0) { return 0.0; }
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < arena_hist_buckets; ++b) {
    seen += call_hist[b];
    if (static_cast<double>(seen) >= rank) {
      return static_cast<double>(std::uint64_t{1} << b);
    }
  }
  return static_cast<double>(std::uint64_t{1} << (arena_hist_buckets - 1));
}

arena::arena(config cfg) : name_(std::move(cfg.name)), cap_(cfg.cap) {
  std::lock_guard lock(registry_mutex());
  registry().push_back(this);
}

arena::~arena() {
  std::lock_guard lock(registry_mutex());
  auto& r = registry();
  r.erase(std::remove(r.begin(), r.end(), this), r.end());
}

arena::ticket arena::admit(unsigned requested) {
  ticket t;
  t.owner_ = this;
  const unsigned r = std::min(requested, cap_);
  if (r <= 1) {
    sequential_cap_.fetch_add(1, std::memory_order_relaxed);
    return t;
  }
  t.outcome_ = admit_outcome::parallel;
  if (tls_granted != 0) {
    // Re-entrant call on a thread that holds a grant: ride it. Queueing
    // here could wait on cores the thread's own grant holds.
    t.granted_ = std::min(r, tls_granted);
    return t;
  }
  const std::uint64_t t0 = now_ns();
  const core_ledger::grant g = ledger().acquire(r);
  record_wait(now_ns() - t0, g.queued);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  t.granted_ = g.width;
  t.charged_ = g.charged;
  t.admit_ns_ = now_ns();
  tls_granted = g.width;
  return t;
}

arena::ticket& arena::ticket::operator=(ticket&& other) noexcept {
  if (this != &other) {
    release();
    owner_ = other.owner_;
    outcome_ = other.outcome_;
    granted_ = other.granted_;
    charged_ = other.charged_;
    admit_ns_ = other.admit_ns_;
    other.owner_ = nullptr;
  }
  return *this;
}

void arena::ticket::release() noexcept {
  if (owner_ == nullptr) { return; }
  if (charged_ != 0) {
    tls_granted = 0;
    owner_->finish(charged_, admit_ns_);
  }
  owner_ = nullptr;
}

void arena::finish(unsigned charged, std::uint64_t admit_ns) noexcept {
  completed_.fetch_add(1, std::memory_order_relaxed);
  record_call(now_ns() - admit_ns);
  ledger().release(charged);
}

void arena::record_wait(std::uint64_t ns, std::uint64_t queued) noexcept {
  wait_hist_[hist_bucket(ns)].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t peak = peak_pending_.load(std::memory_order_relaxed);
  while (queued > peak &&
         !peak_pending_.compare_exchange_weak(peak, queued,
                                              std::memory_order_relaxed)) {
  }
}

void arena::record_call(std::uint64_t ns) noexcept {
  calls_.fetch_add(1, std::memory_order_relaxed);
  call_hist_[hist_bucket(ns)].fetch_add(1, std::memory_order_relaxed);
}

void arena::count_shed(shed_reason reason) noexcept {
  switch (reason) {
    case shed_reason::spawnfail:
      shed_spawnfail_.fetch_add(1, std::memory_order_relaxed);
      break;
    case shed_reason::oom:
      shed_oom_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  const std::uint64_t total =
      g_total_sheds.fetch_add(1, std::memory_order_relaxed) + 1;
  if (warn_budget(last_warn_ms_)) {
    std::fprintf(stderr,
                 "pstlb: arena '%s' shed call to sequential path (%s); "
                 "process-wide sheds=%llu\n",
                 name_.c_str(), reason_name(reason),
                 static_cast<unsigned long long>(total));
  }
}

arena_snapshot arena::snapshot() const {
  arena_snapshot s;
  s.name = name_;
  s.cap = cap_;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.sequential_cap = sequential_cap_.load(std::memory_order_relaxed);
  s.shed_spawnfail = shed_spawnfail_.load(std::memory_order_relaxed);
  s.shed_oom = shed_oom_.load(std::memory_order_relaxed);
  s.watchdog_fires = watchdog_fires_.load(std::memory_order_relaxed);
  s.peak_pending = peak_pending_.load(std::memory_order_relaxed);
  s.calls = calls_.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < arena_hist_buckets; ++b) {
    s.call_hist[b] = call_hist_[b].load(std::memory_order_relaxed);
    s.wait_hist[b] = wait_hist_[b].load(std::memory_order_relaxed);
  }
  return s;
}

std::vector<arena_snapshot> arena::snapshot_all() {
  std::lock_guard lock(registry_mutex());
  std::vector<arena_snapshot> out;
  out.reserve(registry().size());
  for (const arena* a : registry()) { out.push_back(a->snapshot()); }
  return out;
}

std::uint64_t arena::global_shed_count() noexcept {
  return g_total_sheds.load(std::memory_order_relaxed);
}

arena* arena::current() noexcept { return tls_current; }

arena::scoped_bind::scoped_bind(arena* a) noexcept : prev_(tls_current) {
  tls_current = a;
}

arena::scoped_bind::~scoped_bind() { tls_current = prev_; }

arena& arena::default_arena() {
  // Leaked: outlives static teardown.
  static arena* instance = new arena(config{"default", no_cap});
  return *instance;
}

arena& arena::admission_target() {
  arena* const bound = tls_current;
  return bound != nullptr ? *bound : default_arena();
}

void note_degradation(shed_reason reason) noexcept {
  if (arena* a = arena::current()) {
    a->count_shed(reason);
    return;
  }
  const std::uint64_t total =
      g_total_sheds.fetch_add(1, std::memory_order_relaxed) + 1;
  if (warn_budget(g_last_warn_ms)) {
    std::fprintf(stderr,
                 "pstlb: call shed to sequential path (%s); "
                 "process-wide sheds=%llu\n",
                 reason_name(reason),
                 static_cast<unsigned long long>(total));
  }
}

}  // namespace pstlb::sched

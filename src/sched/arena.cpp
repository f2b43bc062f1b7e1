#include "sched/arena.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>

#include "pstlb/env.hpp"
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
    case shed_reason::saturated: return "admission queue full";
    case shed_reason::deadline: return "admission deadline exceeded";
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
// Re-entrancy: the arena (and width) of the ticket this thread currently
// holds, so nested dispatches on the admitting thread reuse the grant
// instead of queueing behind their own tokens.
thread_local arena* tls_holder = nullptr;
thread_local unsigned tls_granted = 0;

std::atomic<std::uint64_t> g_total_sheds{0};
std::atomic<std::uint64_t> g_unattributed_sheds[4] = {};
std::atomic<std::uint64_t> g_last_warn_ms{0};

/// PSTLB_ARENA, read once; set_admission_enabled overrides it.
std::atomic<bool>& admission_flag() noexcept {
  static std::atomic<bool> on{env::enabled_or("PSTLB_ARENA", true)};
  return on;
}

/// ~1/s per limiter; returns true when this call may print.
bool warn_budget(std::atomic<std::uint64_t>& last_warn_ms) noexcept {
  const std::uint64_t now_ms = now_ns() / 1000000u;
  std::uint64_t last = last_warn_ms.load(std::memory_order_relaxed);
  return (now_ms - last >= 1000 || last == 0) &&
         last_warn_ms.compare_exchange_strong(last, now_ms,
                                              std::memory_order_relaxed);
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

struct arena::waiter {
  unsigned requested = 0;
  unsigned granted = 0;  // set by the granter before done flips
  unsigned tokens = 0;   // pool tokens backing the grant (<= granted)
  bool done = false;
  std::condition_variable cv;
};

arena::arena(config cfg)
    : name_(std::move(cfg.name)),
      cap_(cfg.cap),
      max_pending_(cfg.max_pending),
      deadline_ms_(cfg.deadline_ms),
      elastic_(cfg.elastic) {
  std::lock_guard lock(registry_mutex());
  registry().push_back(this);
}

arena::~arena() {
  std::lock_guard lock(registry_mutex());
  auto& r = registry();
  r.erase(std::remove(r.begin(), r.end(), this), r.end());
}

unsigned arena::fair_share_locked() const noexcept {
  const unsigned claimants =
      active_regions_ + static_cast<unsigned>(waiters_.size()) + 1;
  return std::max(2u, cap_ / claimants);
}

void arena::grant_waiters_locked() {
  while (!waiters_.empty()) {
    const unsigned free = cap_ - tokens_in_use_;
    waiter* w = waiters_.front();
    unsigned grant = 0;
    unsigned tokens = 0;
    if (elastic_ && active_regions_ == 0) {
      // Elastic arena gone idle: the head waiter becomes an uncontended
      // caller and keeps its full requested width (see admit()).
      grant = w->requested;
      tokens = std::min(w->requested, cap_);
    } else if (free >= 2) {
      grant = std::min({w->requested, free, fair_share_locked()});
      tokens = grant;
    } else {
      return;
    }
    waiters_.pop_front();
    tokens_in_use_ += tokens;
    ++active_regions_;
    w->granted = grant;
    w->tokens = tokens;
    w->done = true;
    w->cv.notify_one();
  }
}

arena::ticket arena::admit(unsigned requested) {
  ticket t;
  t.owner_ = this;
  if (tls_holder == this) {
    // Re-entrant call on the admitting thread: ride the outer grant. A
    // second round of admission here could wait on tokens the caller's own
    // outer ticket holds — self-deadlock by design, so bypass the gate.
    t.outcome_ = admit_outcome::parallel;
    t.granted_ = std::min(std::max(requested, 2u), tls_granted);
    t.owns_tokens_ = false;
    return t;
  }
  if ((cap_ <= 1 && !elastic_) || requested <= 1) {
    sequential_cap_.fetch_add(1, std::memory_order_relaxed);
    t.outcome_ = admit_outcome::sequential_cap;
    return t;
  }
  const std::uint64_t t0 = now_ns();
  unsigned grant = 0;
  unsigned tokens = 0;
  {
    std::unique_lock lock(mutex_);
    const unsigned free = cap_ - tokens_in_use_;
    if (elastic_ && active_regions_ == 0 && waiters_.empty()) {
      // Uncontended elastic arena: admission exists to divide the machine
      // among concurrent callers, not to trim a lone caller below what its
      // policy asked for. Grant the full request (legacy oversubscription);
      // only cap_ tokens are charged so contention accounting stays bounded.
      grant = requested;
      tokens = std::min(requested, cap_);
      tokens_in_use_ += tokens;
      ++active_regions_;
    } else if (waiters_.empty() && free >= 2) {
      grant = std::min({requested, free, fair_share_locked()});
      tokens = grant;
      tokens_in_use_ += tokens;
      ++active_regions_;
    } else if (waiters_.size() >= max_pending_) {
      lock.unlock();
      count_shed(shed_reason::saturated);
      t.outcome_ = admit_outcome::shed_saturated;
      return t;
    } else {
      waiter w;
      w.requested = requested;
      waiters_.push_back(&w);
      const auto pending = static_cast<std::uint64_t>(waiters_.size());
      std::uint64_t peak = peak_pending_.load(std::memory_order_relaxed);
      while (pending > peak &&
             !peak_pending_.compare_exchange_weak(peak, pending,
                                                  std::memory_order_relaxed)) {
      }
      if (deadline_ms_ > 0) {
        const bool granted = w.cv.wait_for(
            lock, std::chrono::milliseconds(deadline_ms_),
            [&w] { return w.done; });
        if (!granted) {
          // Still queued (checked under the lock): withdraw and shed. This
          // is the soft deadline — the call degrades instead of hanging.
          auto it = std::find(waiters_.begin(), waiters_.end(), &w);
          if (it != waiters_.end()) { waiters_.erase(it); }
          lock.unlock();
          count_shed(shed_reason::deadline);
          t.outcome_ = admit_outcome::shed_deadline;
          return t;
        }
      } else {
        w.cv.wait(lock, [&w] { return w.done; });
      }
      grant = w.granted;
      tokens = w.tokens;
    }
  }
  record_wait(now_ns() - t0);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  t.outcome_ = admit_outcome::parallel;
  t.granted_ = grant;
  t.tokens_ = tokens;
  t.owns_tokens_ = true;
  t.admit_ns_ = now_ns();
  t.prev_holder_ = tls_holder;
  t.prev_granted_ = tls_granted;
  tls_holder = this;
  tls_granted = grant;
  return t;
}

arena::ticket& arena::ticket::operator=(ticket&& other) noexcept {
  if (this != &other) {
    release();
    owner_ = other.owner_;
    outcome_ = other.outcome_;
    granted_ = other.granted_;
    tokens_ = other.tokens_;
    owns_tokens_ = other.owns_tokens_;
    admit_ns_ = other.admit_ns_;
    prev_holder_ = other.prev_holder_;
    prev_granted_ = other.prev_granted_;
    other.owner_ = nullptr;
    other.owns_tokens_ = false;
  }
  return *this;
}

void arena::ticket::release() noexcept {
  if (owner_ == nullptr) { return; }
  if (outcome_ == admit_outcome::parallel && owns_tokens_) {
    tls_holder = prev_holder_;
    tls_granted = prev_granted_;
    owner_->finish(tokens_, admit_ns_);
  }
  owner_ = nullptr;
  owns_tokens_ = false;
}

void arena::finish(unsigned tokens, std::uint64_t admit_ns) noexcept {
  completed_.fetch_add(1, std::memory_order_relaxed);
  record_call(now_ns() - admit_ns);
  std::lock_guard lock(mutex_);
  tokens_in_use_ -= tokens;
  --active_regions_;
  grant_waiters_locked();
}

void arena::record_wait(std::uint64_t ns) noexcept {
  wait_hist_[hist_bucket(ns)].fetch_add(1, std::memory_order_relaxed);
}

void arena::record_call(std::uint64_t ns) noexcept {
  calls_.fetch_add(1, std::memory_order_relaxed);
  call_hist_[hist_bucket(ns)].fetch_add(1, std::memory_order_relaxed);
}

void arena::count_shed(shed_reason reason) noexcept {
  switch (reason) {
    case shed_reason::saturated:
      shed_saturated_.fetch_add(1, std::memory_order_relaxed);
      break;
    case shed_reason::deadline:
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      break;
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
  s.shed_saturated = shed_saturated_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
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
  static arena* instance = [] {
    config cfg;
    cfg.name = "default";
    const unsigned cap_env = env::unsigned_or("PSTLB_ARENA_CAP", 0);
    // No explicit cap: elastic, so a lone caller keeps the exact width its
    // policy requested (pre-arena behaviour on any host size) and only
    // concurrent callers contend for the token pool the global thread_pool
    // is sized for. An explicit PSTLB_ARENA_CAP is a hard limit the operator
    // asked for.
    cfg.cap = cap_env != 0 ? cap_env : default_width();
    cfg.elastic = cap_env == 0;
    cfg.max_pending = env::unsigned_or("PSTLB_ARENA_MAX_PENDING", 64);
    cfg.deadline_ms = env::unsigned_or("PSTLB_ARENA_DEADLINE_MS", 0);
    return new arena(std::move(cfg));  // leaked: outlives static teardown
  }();
  return *instance;
}

bool arena::admission_enabled() noexcept {
  return admission_flag().load(std::memory_order_relaxed);
}

void arena::set_admission_enabled(bool on) noexcept {
  admission_flag().store(on, std::memory_order_relaxed);
}

arena* arena::admission_target() {
  if (arena* a = tls_current) { return a; }
  if (!admission_enabled()) { return nullptr; }
  return &default_arena();
}

void note_degradation(shed_reason reason) noexcept {
  if (arena* a = arena::current()) {
    a->count_shed(reason);
    return;
  }
  g_unattributed_sheds[static_cast<std::size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
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

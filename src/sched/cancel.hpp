// Per-region exception propagation and cooperative cancellation.
//
// Every parallel region (one pool run, one fork-join launch, one lookback
// scan) owns a cancel_source. The first chunk whose user code throws captures
// the exception exactly once and trips the token; the remaining chunks
// observe the token at chunk granularity and drain without running user code,
// so the pool's completion accounting stays sound; the launching thread
// rethrows after the join. These are TBB task_group_context semantics: one
// exception per region, no torn containers beyond "valid but unspecified",
// never std::terminate.
//
// The source doubles as the region's progress heartbeat for the watchdog
// (sched/watchdog.hpp): chunks call beat() on completion, and a monitor that
// sees no beats for PSTLB_WATCHDOG_MS cancels the region by capturing a
// watchdog_timeout here.
//
// A region started inside another region's chunk (a nested call) links its
// source to the enclosing one: every beat also counts for the parent, so a
// long nested loop keeps the enclosing watchdog quiet, and a cancelled
// parent makes the child read as cancelled, so an enclosing failure drains
// the nested chunks. Each source still captures and rethrows only its own
// first exception.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>

namespace pstlb::sched {

class cancel_source {
 public:
  /// `parent` is the enclosing region's source (current_cancel() where this
  /// region starts), or nullptr for an outermost region.
  explicit cancel_source(cancel_source* parent = nullptr) noexcept
      : parent_(parent) {}
  cancel_source(const cancel_source&) = delete;
  cancel_source& operator=(const cancel_source&) = delete;

  /// True once any chunk threw, the region was cancelled, or an enclosing
  /// region was. Chunk-granular check: bodies that can block (lookback
  /// spins, injected stalls) poll this inside their wait loops too.
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire) ||
           (parent_ != nullptr && parent_->cancelled());
  }

  /// Captures `error` if no exception has been captured yet, then trips the
  /// token. Later captures lose the race and are dropped — exactly one
  /// exception reaches the caller.
  void capture(std::exception_ptr error) noexcept {
    bool expected = false;
    if (winner_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
      error_ = std::move(error);
      error_ready_.store(true, std::memory_order_release);
    }
    cancelled_.store(true, std::memory_order_release);
  }

  /// capture(std::current_exception()) — for catch (...) blocks.
  void capture_current() noexcept { capture(std::current_exception()); }

  /// Trips the token without an exception (drain-only cancellation).
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

  /// Progress heartbeat: bumped once per completed chunk, here and in every
  /// enclosing source. The watchdog declares a region hung when this stops
  /// moving.
  void beat() noexcept {
    progress_.fetch_add(1, std::memory_order_relaxed);
    if (parent_ != nullptr) { parent_->beat(); }
  }
  std::uint64_t progress() const noexcept {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Rethrows the captured exception, if any. Called by the launching thread
  /// after every worker left the region; the spin only covers the window
  /// between a concurrent winner's CAS and its error_ready_ publication.
  void rethrow() {
    if (!cancelled_.load(std::memory_order_acquire)) { return; }
    if (winner_.load(std::memory_order_acquire)) {
      while (!error_ready_.load(std::memory_order_acquire)) {}
      std::rethrow_exception(error_);
    }
  }

  /// True when an exception has been captured (the region failed, as opposed
  /// to a plain cancel()).
  bool has_error() const noexcept {
    return error_ready_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> winner_{false};
  std::atomic<bool> error_ready_{false};
  std::atomic<std::uint64_t> progress_{0};
  std::exception_ptr error_;
  cancel_source* const parent_;
};

namespace detail {
inline thread_local cancel_source* tls_cancel = nullptr;
}

/// The cancel source of the innermost region executing on this thread, or
/// nullptr outside any region. Lets leaf code with no plumbing to the region
/// (fault injection stalls, long-running user loops) poll for cancellation,
/// and is the one "inside a region" test: a parallel call made where it is
/// set runs as a region nested in that one.
inline cancel_source* current_cancel() noexcept { return detail::tls_cancel; }

/// RAII binding of current_cancel() around one participant's share of a
/// region (thread_pool::run binds it, once per participant).
class cancel_binding {
 public:
  explicit cancel_binding(cancel_source* src) noexcept
      : prev_(detail::tls_cancel) {
    detail::tls_cancel = src;
  }
  ~cancel_binding() { detail::tls_cancel = prev_; }
  cancel_binding(const cancel_binding&) = delete;
  cancel_binding& operator=(const cancel_binding&) = delete;

 private:
  cancel_source* prev_;
};

}  // namespace pstlb::sched

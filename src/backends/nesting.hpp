// Nested-parallelism guard.
//
// Real STL backends (TBB, GOMP) execute a parallel algorithm called from
// inside another parallel region sequentially on the calling thread; our
// pools additionally must not re-enter themselves (a worker waiting on its
// own pool would deadlock). backends::run consults `in_parallel_region()`
// and degrades to the sequential path when set; exec::dispatch turns a
// first-level nested call inside an arena into arena tasks instead.
#pragma once

namespace pstlb::backends {

namespace detail {
inline thread_local int region_depth = 0;
}

/// RAII marker backends::run places around every chunk it hands a pool.
class region_guard {
 public:
  region_guard() noexcept { ++detail::region_depth; }
  ~region_guard() { --detail::region_depth; }
  region_guard(const region_guard&) = delete;
  region_guard& operator=(const region_guard&) = delete;
};

inline bool in_parallel_region() noexcept { return detail::region_depth > 0; }

/// Current nesting depth (0 outside any region). The arena layer converts a
/// depth-1 nested call into arena tasks; deeper nesting runs sequentially.
inline int region_depth() noexcept { return detail::region_depth; }

}  // namespace pstlb::backends

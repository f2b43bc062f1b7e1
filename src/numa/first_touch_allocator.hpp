// Custom parallel first-touch allocator (paper Listing 5, adapted from the
// HPX NUMA allocator).
//
// On NUMA systems Linux places a page on the node of the thread that first
// writes it. The default allocator pattern (allocate + initialize from the
// main thread) therefore concentrates every page on one node, serializing
// memory-bound parallel algorithms behind a single memory controller. This
// allocator instead touches the first byte of each page from a parallel
// loop using the given execution policy, so pages spread across the nodes
// of the threads that will later process them.
//
// Section 5.1 / Fig. 1 of the paper measures the effect: up to +63 % for
// for_each (k_it = 1) and +50 % for reduce; slightly negative for find and
// inclusive_scan. Natively the allocator is the placement and records
// nothing; the simulator models both placements (numa::placement).
//
// It places benchmark inputs (bench_core generators, examples, user code).
// No algorithm allocates through it: their scratch (pstlb/detail/scratch.hpp)
// is left untouched until the algorithm's own first parallel pass writes
// it. The touch is one parallel call like any other: it is admitted against
// the caller's arena and runs at the granted width, or on the caller when
// the arena sends it sequential.
#pragma once

#include <cstddef>
#include <new>

#include "backends/skeletons.hpp"
#include "numa/topology.hpp"
#include "pstlb/exec.hpp"
#include "pstlb/fault.hpp"

namespace pstlb::numa {

/// Touches the first byte of each page of [p, p + bytes) in parallel with
/// the policy's backend — the core of Listing 5. The touch goes through
/// exec::dispatch at the default grain and with no sequential threshold, so
/// the arena decides its width; a seq policy or a sequential admission
/// touches from the calling thread.
inline void parallel_first_touch(exec::policy policy, std::byte* p,
                                 std::size_t bytes) {
  const std::size_t page = topology().page_size;
  const index_t pages = static_cast<index_t>((bytes + page - 1) / page);
  const auto touch = [&](index_t b, index_t e, unsigned) {
    for (index_t i = b; i < e; ++i) {
      p[static_cast<std::size_t>(i) * page] = std::byte{0};
    }
  };
  // The grain and threshold are counted in elements; these are pages.
  policy.grain = 0;
  policy.seq_threshold = 0;
  // Contiguous page slices per thread, mirroring the chunks the parallel
  // algorithms will later hand to the same threads.
  exec::dispatch(
      policy, pages, [&] { touch(0, pages, 0); },
      [&](const backends::backend& be, index_t grain) {
        backends::parallel_for(be, pages, grain, touch);
      });
}

/// std-compatible allocator performing a parallel first touch on allocate().
/// `Policy` is the stored policy's type: exec::policy or one of its presets.
template <class T, class Policy = exec::omp_static_policy>
class first_touch_allocator {
 public:
  using value_type = T;

  first_touch_allocator() = default;
  explicit first_touch_allocator(Policy policy) : policy_(policy) {}

  template <class U>
  first_touch_allocator(const first_touch_allocator<U, Policy>& other) noexcept
      : policy_(other.policy()) {}

  template <class U>
  struct rebind {
    using other = first_touch_allocator<U, Policy>;
  };

  T* allocate(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    // Injected allocation failure (PSTLB_FAULT=oom:<p>) raises bad_alloc here,
    // before any allocation.
    if (fault::armed()) { fault::on_alloc(bytes); }
    auto* raw = static_cast<std::byte*>(
        ::operator new(bytes, std::align_val_t{alignof(std::max_align_t)}));
    try {
      parallel_first_touch(policy_, raw, bytes);
    } catch (...) {  // a touch chunk threw (fault injection): nothing to leak
      ::operator delete(raw, std::align_val_t{alignof(std::max_align_t)});
      throw;
    }
    return reinterpret_cast<T*>(raw);
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{alignof(std::max_align_t)});
  }

  const Policy& policy() const noexcept { return policy_; }

  friend bool operator==(const first_touch_allocator&, const first_touch_allocator&) {
    return true;  // all instances use the same heap
  }

 private:
  Policy policy_{};
};

}  // namespace pstlb::numa

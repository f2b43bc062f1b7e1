// Scratch buffers of the parallel paths that stage elements out of place
// (samplesort's scatter buffer and bucket ids, the mergesort's rounds,
// inplace_merge, stable_partition, rotate, the shifts, remove_if/unique and
// partial_sort_copy). This is the only n-element allocator of the
// algorithms.
//
// Each buffer is allocated inside the OOM ladder of DESIGN.md §17: the
// fault::on_alloc hook fires first, and a std::bad_alloc counts one oom shed
// and reports failure instead of escaping. Every site allocates before any
// element has moved, so on failure it runs its std algorithm on the intact
// input.
//
// The elements are default-initialized: trivially copyable ones keep
// whatever the allocator hands over, since every site writes a slot before
// it reads it, and class types are default-constructed. Nothing writes the
// buffer on the caller, so the site's first parallel pass places its pages
// on the threads that write them (the first-touch rule that the paper's
// allocator, numa/first_touch_allocator.hpp, applies to benchmark inputs).
#pragma once

#include <cstddef>
#include <memory>
#include <new>

#include "pstlb/common.hpp"
#include "pstlb/fault.hpp"
#include "sched/arena.hpp"

namespace pstlb::detail {

/// `n` default-initialized elements, or null after noting an oom shed.
template <class T>
std::unique_ptr<T[]> scratch_buffer(index_t n) {
  try {
    if (fault::armed()) { fault::on_alloc(static_cast<std::size_t>(n) * sizeof(T)); }
    return std::make_unique_for_overwrite<T[]>(static_cast<std::size_t>(n));
  } catch (const std::bad_alloc&) {
    sched::note_degradation(sched::shed_reason::oom);
    return nullptr;
  }
}

}  // namespace pstlb::detail

// Scratch buffers of the parallel paths that stage elements out of place
// (the mergesort's rounds, inplace_merge, stable_partition, rotate, the
// shifts, remove_if/unique and partial_sort_copy).
//
// Each buffer is allocated inside the OOM ladder of DESIGN.md §17: the
// fault::on_alloc hook fires first, and a std::bad_alloc counts an oom shed
// and reports failure instead of escaping. Every site allocates before any
// element has moved, so on failure it runs its std algorithm on the intact
// input.
#pragma once

#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "pstlb/common.hpp"
#include "pstlb/fault.hpp"
#include "sched/arena.hpp"

namespace pstlb::detail {

/// `n` value-initialized elements — or, given `args`, the vector they
/// construct, which must hold `n` elements (`scratch_buffer<T>(n, first,
/// last)` copies the input in one pass) — or nullopt after noting an oom
/// shed.
template <class T, class... Args>
std::optional<std::vector<T>> scratch_buffer(index_t n, Args&&... args) {
  try {
    if (fault::armed()) { fault::on_alloc(static_cast<std::size_t>(n) * sizeof(T)); }
    if constexpr (sizeof...(Args) == 0) {
      return std::vector<T>(static_cast<std::size_t>(n));
    } else {
      return std::vector<T>(std::forward<Args>(args)...);
    }
  } catch (const std::bad_alloc&) {
    sched::note_degradation(sched::shed_reason::oom);
    return std::nullopt;
  }
}

}  // namespace pstlb::detail

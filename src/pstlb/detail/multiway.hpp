// Multiway (R-way) merge — the algorithm behind GNU parallel mode's
// multiway mergesort, which Section 5.6 identifies as the reason GCC-GNU
// dominates the sort column of Table 5: R sorted runs are merged in ONE
// pass over the data instead of log2(R) binary passes.
//
// Parallelization: sample P-1 splitter values from the runs, cut every run
// at each splitter with lower_bound (so equal values never split across
// parts — that preserves stability), then merge each part's R segments
// independently with a tournament heap keyed by (value, run index).
#pragma once

#include <algorithm>
#include <queue>
#include <vector>

#include "backends/skeletons.hpp"
#include "pstlb/common.hpp"

namespace pstlb::detail {

template <class It>
struct run_ref {
  It begin;
  It end;
};

/// Sequential stable R-way merge of `runs` into `out` using a tournament
/// heap. Ties resolve to the lower run index, which makes the merge stable
/// when runs are ordered by original position.
template <class It, class Out, class Compare>
Out kway_merge_segments(const std::vector<run_ref<It>>& runs, Out out, Compare comp) {
  struct head {
    It current;
    It end;
    std::size_t run;
  };
  auto head_greater = [&comp](const head& a, const head& b) {
    if (comp(*b.current, *a.current)) { return true; }
    if (comp(*a.current, *b.current)) { return false; }
    return a.run > b.run;  // equal keys: earlier run first (stability)
  };
  std::priority_queue<head, std::vector<head>, decltype(head_greater)> heap(
      head_greater);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (runs[r].begin != runs[r].end) { heap.push({runs[r].begin, runs[r].end, r}); }
  }
  while (!heap.empty()) {
    head top = heap.top();
    heap.pop();
    *out++ = std::move(*top.current);
    ++top.current;
    if (top.current != top.end) { heap.push(top); }
  }
  return out;
}

/// Parallel stable multiway merge of `runs` into `out` over backend `be`.
/// The output must not overlap any run.
template <class It, class Out, class Compare>
void parallel_multiway_merge(const backends::backend& be,
                             const std::vector<run_ref<It>>& runs, Out out,
                             Compare comp) {
  const std::size_t r_count = runs.size();
  index_t total = 0;
  for (const auto& run : runs) { total += run.end - run.begin; }
  if (total == 0) { return; }

  const index_t parts =
      std::min<index_t>(static_cast<index_t>(be.threads()) * 2,
                        std::max<index_t>(1, total / 4096));
  if (parts <= 1 || be.threads() == 1 || r_count <= 1) {
    kway_merge_segments(runs, out, comp);
    return;
  }

  // Splitters: regular samples from every run, sorted; pick parts-1 evenly.
  using T = typename std::iterator_traits<It>::value_type;
  std::vector<T> samples;
  const index_t per_run = std::max<index_t>(4, 2 * parts / static_cast<index_t>(r_count));
  for (const auto& run : runs) {
    const index_t len = run.end - run.begin;
    for (index_t s = 1; s <= per_run; ++s) {
      const index_t pos = len * s / (per_run + 1);
      if (pos < len) { samples.push_back(run.begin[pos]); }
    }
  }
  std::sort(samples.begin(), samples.end(), comp);

  // Cut positions: cuts[p][r] = how much of run r belongs to parts 0..p-1.
  // lower_bound keeps every copy of a splitter value in one part.
  std::vector<std::vector<index_t>> cuts(static_cast<std::size_t>(parts) + 1,
                                         std::vector<index_t>(r_count));
  for (std::size_t r = 0; r < r_count; ++r) {
    cuts[0][r] = 0;
    cuts[static_cast<std::size_t>(parts)][r] = runs[r].end - runs[r].begin;
  }
  for (index_t p = 1; p < parts; ++p) {
    const std::size_t sample_at = samples.empty()
                                      ? 0
                                      : std::min(samples.size() - 1,
                                                 samples.size() * static_cast<std::size_t>(p) /
                                                     static_cast<std::size_t>(parts));
    for (std::size_t r = 0; r < r_count; ++r) {
      cuts[static_cast<std::size_t>(p)][r] =
          samples.empty()
              ? cuts[static_cast<std::size_t>(p) - 1][r]
              : std::lower_bound(runs[r].begin, runs[r].end, samples[sample_at], comp) -
                    runs[r].begin;
    }
  }
  // Monotone repair (samples may repeat): cuts must be non-decreasing in p.
  for (index_t p = 1; p <= parts; ++p) {
    for (std::size_t r = 0; r < r_count; ++r) {
      cuts[static_cast<std::size_t>(p)][r] = std::max(
          cuts[static_cast<std::size_t>(p)][r], cuts[static_cast<std::size_t>(p) - 1][r]);
    }
  }
  // Output offset of each part.
  std::vector<index_t> offsets(static_cast<std::size_t>(parts) + 1, 0);
  for (index_t p = 1; p <= parts; ++p) {
    index_t size = 0;
    for (std::size_t r = 0; r < r_count; ++r) {
      size += cuts[static_cast<std::size_t>(p)][r] -
              cuts[static_cast<std::size_t>(p) - 1][r];
    }
    offsets[static_cast<std::size_t>(p)] = offsets[static_cast<std::size_t>(p) - 1] + size;
  }
  PSTLB_ENSURES(offsets[static_cast<std::size_t>(parts)] == total);

  backends::parallel_for(be, parts, index_t{1}, [&](index_t pb, index_t pe, unsigned) {
    for (index_t p = pb; p < pe; ++p) {
      std::vector<run_ref<It>> segments;
      segments.reserve(r_count);
      for (std::size_t r = 0; r < r_count; ++r) {
        segments.push_back({runs[r].begin + cuts[static_cast<std::size_t>(p)][r],
                            runs[r].begin + cuts[static_cast<std::size_t>(p) + 1][r]});
      }
      kway_merge_segments(segments, out + offsets[static_cast<std::size_t>(p)], comp);
    }
  });
}

}  // namespace pstlb::detail

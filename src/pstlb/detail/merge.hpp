// Merge-path machinery shared by sort / merge / inplace_merge / set ops.
//
// `merge_path_split` computes, for a diagonal d of the merge matrix of two
// sorted ranges A and B, how many of the first d merged outputs come from A —
// with the tie-breaking of a *stable* merge (equal elements from A first).
// Splitting a merge at diagonals yields independent sub-merges, which is how
// every merge in this library parallelizes (same scheme as Thrust/TBB).
#pragma once

#include <algorithm>
#include <vector>

#include "backends/skeletons.hpp"
#include "pstlb/common.hpp"

namespace pstlb::detail {

template <class ItA, class ItB, class Compare>
index_t merge_path_split(ItA a_first, index_t a_len, ItB b_first, index_t b_len,
                         index_t diagonal, Compare comp) {
  index_t lo = diagonal > b_len ? diagonal - b_len : 0;
  index_t hi = diagonal < a_len ? diagonal : a_len;
  while (lo < hi) {
    const index_t mid = lo + (hi - lo) / 2;
    // With i = mid elements from A, the last B taken is B[diagonal-mid-1] and
    // the next A is A[mid]. A stable merge must have taken A[mid] first
    // unless B[diagonal-mid-1] is strictly smaller.
    if (!comp(b_first[diagonal - mid - 1], a_first[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// One independent sub-merge: A[a0,a1) x B[b0,b1) -> out at offset a0+b0.
struct merge_part {
  index_t a0, a1, b0, b1;
};

/// Cuts the merge of (a_len, b_len) into `parts` independent pieces.
template <class ItA, class ItB, class Compare>
std::vector<merge_part> make_merge_parts(ItA a_first, index_t a_len, ItB b_first,
                                         index_t b_len, index_t parts, Compare comp) {
  const index_t total = a_len + b_len;
  if (parts < 1) { parts = 1; }
  if (parts > total) { parts = total > 0 ? total : 1; }
  std::vector<merge_part> out;
  out.reserve(static_cast<std::size_t>(parts));
  index_t prev_d = 0;
  index_t prev_a = 0;
  for (index_t p = 1; p <= parts; ++p) {
    const index_t d = p == parts ? total : total * p / parts;
    const index_t a = p == parts
                          ? a_len
                          : merge_path_split(a_first, a_len, b_first, b_len, d, comp);
    out.push_back({prev_a, a, prev_d - prev_a, d - a});
    prev_d = d;
    prev_a = a;
  }
  return out;
}

/// Stable parallel merge of two sorted ranges into `out` (non-overlapping).
template <class ItA, class ItB, class Out, class Compare>
void parallel_merge_into(const backends::backend& be, ItA a_first, index_t a_len,
                         ItB b_first, index_t b_len, Out out, Compare comp) {
  const index_t total = a_len + b_len;
  if (total == 0) { return; }
  const index_t parts =
      std::min<index_t>(static_cast<index_t>(be.threads()) * 4,
                        std::max<index_t>(1, total / 4096));
  if (parts <= 1 || be.threads() == 1) {
    std::merge(a_first, a_first + a_len, b_first, b_first + b_len, out, comp);
    return;
  }
  const auto pieces = make_merge_parts(a_first, a_len, b_first, b_len, parts, comp);
  backends::parallel_for(
      be, static_cast<index_t>(pieces.size()), index_t{1},
      [&](index_t pb, index_t pe, unsigned) {
        for (index_t p = pb; p < pe; ++p) {
          const merge_part& piece = pieces[static_cast<std::size_t>(p)];
          std::merge(a_first + piece.a0, a_first + piece.a1, b_first + piece.b0,
                     b_first + piece.b1, out + piece.a0 + piece.b0, comp);
        }
      });
}

}  // namespace pstlb::detail

// Set operations on sorted ranges (merge-family parallel algorithms).
//
// Parallelization scheme: cut the driver range at *value boundaries* (always
// at the first occurrence of a value), locate the matching cut in the other
// range by binary search, and run the sequential std:: set operation on each
// chunk pair independently. Because every copy of any given value lands in
// exactly one chunk pair, the multiset semantics of the set operations
// distribute over the cuts. Output positions come from a count pass with a
// counting output iterator, exactly like the pack skeleton.
#pragma once

#include <algorithm>
#include <functional>
#include <iterator>
#include <vector>

#include "backends/skeletons.hpp"
#include "pstlb/exec.hpp"
#include "trace/stats_registry.hpp"

namespace pstlb {

namespace detail {

/// Output iterator that discards values and counts assignments. Used for the
/// dry-run (count) pass of the set operations.
class counting_output_iterator {
 public:
  using iterator_category = std::output_iterator_tag;
  using value_type = void;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = void;

  struct proxy {
    template <class T>
    proxy& operator=(T&&) noexcept {
      return *this;
    }
  };

  proxy operator*() const noexcept { return {}; }
  counting_output_iterator& operator++() noexcept {
    ++count_;
    return *this;
  }
  counting_output_iterator operator++(int) noexcept {
    counting_output_iterator old = *this;
    ++count_;
    return old;
  }
  index_t count() const noexcept { return count_; }

 private:
  index_t count_ = 0;
};

struct set_chunk {
  index_t a0, a1, b0, b1;
};

/// Value-aligned co-partition of two sorted ranges, driven by `a`.
template <class ItA, class ItB, class Compare>
std::vector<set_chunk> make_set_chunks(ItA a, index_t na, ItB b, index_t nb,
                                       index_t parts, Compare comp) {
  std::vector<set_chunk> chunks;
  if (parts < 1) { parts = 1; }
  chunks.reserve(static_cast<std::size_t>(parts));
  index_t prev_a = 0;
  index_t prev_b = 0;
  for (index_t p = 1; p <= parts; ++p) {
    index_t cut_a = na;
    index_t cut_b = nb;
    if (p < parts) {
      const index_t target = na * p / parts;
      if (target >= na) { continue; }
      // First occurrence of the boundary value, so equal runs never split.
      cut_a = std::lower_bound(a, a + na, a[target], comp) - a;
      if (cut_a <= prev_a) { continue; }
      cut_b = std::lower_bound(b, b + nb, a[cut_a], comp) - b;
    }
    chunks.push_back({prev_a, cut_a, prev_b, cut_b});
    prev_a = cut_a;
    prev_b = cut_b;
    if (prev_a >= na) { break; }
  }
  if (prev_a < na || prev_b < nb) { chunks.push_back({prev_a, na, prev_b, nb}); }
  return chunks;
}

/// Shared two-pass driver for the four set operations. `op(a0,a1,b0,b1,out)`
/// must be a callable running the sequential std:: algorithm and returning
/// the end output iterator.
template <class It1, class It2, class Out, class Compare, class SeqOp>
Out set_op_impl(const exec::policy& policy, It1 first1, It1 last1, It2 first2, It2 last2,
                Out out, Compare comp, SeqOp op) {
  const index_t n1 = std::distance(first1, last1);
  const index_t n2 = std::distance(first2, last2);
  return exec::dispatch(
      policy, n1 + n2, [&] { return op(first1, last1, first2, last2, out); },
      [&](const backends::backend& be, index_t) {
        const index_t parts = static_cast<index_t>(be.threads()) * 4;
        const auto chunks = make_set_chunks(first1, n1, first2, n2, parts, comp);
        const index_t nchunks = static_cast<index_t>(chunks.size());
        std::vector<index_t> offsets(chunks.size());
        backends::parallel_for(be, nchunks, index_t{1},
                               [&](index_t cb, index_t ce, unsigned) {
                                 for (index_t c = cb; c < ce; ++c) {
                                   const auto& k = chunks[static_cast<std::size_t>(c)];
                                   counting_output_iterator counter;
                                   auto done = op(first1 + k.a0, first1 + k.a1,
                                                  first2 + k.b0, first2 + k.b1, counter);
                                   offsets[static_cast<std::size_t>(c)] = done.count();
                                 }
                               });
        index_t total = 0;
        for (auto& offset : offsets) {
          const index_t mine = offset;
          offset = total;
          total += mine;
        }
        backends::parallel_for(be, nchunks, index_t{1},
                               [&](index_t cb, index_t ce, unsigned) {
                                 for (index_t c = cb; c < ce; ++c) {
                                   const auto& k = chunks[static_cast<std::size_t>(c)];
                                   op(first1 + k.a0, first1 + k.a1, first2 + k.b0,
                                      first2 + k.b1,
                                      out + offsets[static_cast<std::size_t>(c)]);
                                 }
                               });
        return out + total;
      });
}

}  // namespace detail

template <class It1, class It2, class Out, class Compare>
Out set_union(const exec::policy& policy, It1 first1, It1 last1, It2 first2, It2 last2,
              Out out, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::set_union);
  return detail::set_op_impl(policy, first1, last1, first2, last2,
                             out, comp, [comp](auto a0, auto a1, auto b0, auto b1, auto o) {
                               return std::set_union(a0, a1, b0, b1, o, comp);
                             });
}

template <class It1, class It2, class Out>
Out set_union(const exec::policy& policy, It1 first1, It1 last1, It2 first2, It2 last2,
              Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::set_union);
  return pstlb::set_union(policy, first1, last1, first2, last2, out,
                          std::less<>{});
}

template <class It1, class It2, class Out, class Compare>
Out set_intersection(const exec::policy& policy, It1 first1, It1 last1, It2 first2,
                     It2 last2, Out out, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::set_intersection);
  return detail::set_op_impl(policy, first1, last1, first2, last2,
                             out, comp, [comp](auto a0, auto a1, auto b0, auto b1, auto o) {
                               return std::set_intersection(a0, a1, b0, b1, o, comp);
                             });
}

template <class It1, class It2, class Out>
Out set_intersection(const exec::policy& policy, It1 first1, It1 last1, It2 first2,
                     It2 last2, Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::set_intersection);
  return pstlb::set_intersection(policy, first1, last1, first2, last2,
                                 out, std::less<>{});
}

template <class It1, class It2, class Out, class Compare>
Out set_difference(const exec::policy& policy, It1 first1, It1 last1, It2 first2,
                   It2 last2, Out out, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::set_difference);
  return detail::set_op_impl(policy, first1, last1, first2, last2,
                             out, comp, [comp](auto a0, auto a1, auto b0, auto b1, auto o) {
                               return std::set_difference(a0, a1, b0, b1, o, comp);
                             });
}

template <class It1, class It2, class Out>
Out set_difference(const exec::policy& policy, It1 first1, It1 last1, It2 first2,
                   It2 last2, Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::set_difference);
  return pstlb::set_difference(policy, first1, last1, first2, last2,
                               out, std::less<>{});
}

template <class It1, class It2, class Out, class Compare>
Out set_symmetric_difference(const exec::policy& policy, It1 first1, It1 last1,
                             It2 first2, It2 last2, Out out, Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::set_symmetric_difference);
  return detail::set_op_impl(policy, first1, last1, first2, last2,
                             out, comp, [comp](auto a0, auto a1, auto b0, auto b1, auto o) {
                               return std::set_symmetric_difference(a0, a1, b0, b1, o,
                                                                    comp);
                             });
}

template <class It1, class It2, class Out>
Out set_symmetric_difference(const exec::policy& policy, It1 first1, It1 last1,
                             It2 first2, It2 last2, Out out) {
  stats::scoped_call pstlb_stats_scope_(stats::op::set_symmetric_difference);
  return pstlb::set_symmetric_difference(policy, first1, last1,
                                         first2, last2, out, std::less<>{});
}

/// includes: is the sorted needle range [first2, last2) a sub-multiset of the
/// sorted haystack [first1, last1)? Chunked by needle values; every chunk must
/// individually be included in its value-aligned haystack slice.
template <class It1, class It2, class Compare>
bool includes(const exec::policy& policy, It1 first1, It1 last1, It2 first2, It2 last2,
              Compare comp) {
  stats::scoped_call pstlb_stats_scope_(stats::op::includes);
  const index_t n1 = std::distance(first1, last1);
  const index_t n2 = std::distance(first2, last2);
  if (n2 == 0) { return true; }
  return exec::dispatch(
      policy, n1 + n2,
      [&] { return std::includes(first1, last1, first2, last2, comp); },
      [&](const backends::backend& be, index_t) {
        const index_t parts = static_cast<index_t>(be.threads()) * 4;
        // Drive the cuts by the needle so each needle chunk is complete.
        const auto chunks = detail::make_set_chunks(first2, n2, first1, n1, parts, comp);
        return backends::parallel_reduce(
            be, static_cast<index_t>(chunks.size()), index_t{1}, true,
            [&](index_t cb, index_t ce) {
              bool ok = true;
              for (index_t c = cb; c < ce && ok; ++c) {
                const auto& k = chunks[static_cast<std::size_t>(c)];
                ok = std::includes(first1 + k.b0, first1 + k.b1, first2 + k.a0,
                                   first2 + k.a1, comp);
              }
              return ok;
            },
            std::logical_and<>{});
      });
}

template <class It1, class It2>
bool includes(const exec::policy& policy, It1 first1, It1 last1, It2 first2, It2 last2) {
  stats::scoped_call pstlb_stats_scope_(stats::op::includes);
  return pstlb::includes(policy, first1, last1, first2, last2,
                         std::less<>{});
}

}  // namespace pstlb

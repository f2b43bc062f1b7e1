// Unit tests for the internal machinery: merge-path splitting, value-aligned
// set chunking, the counting output iterator, chunk tables, and the dispatch
// rules of exec::dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "backends/skeletons.hpp"
#include "pstlb/algo_set.hpp"
#include "pstlb/detail/merge.hpp"
#include "pstlb/pstlb.hpp"

namespace {

using pstlb::index_t;

// --- merge_path_split --------------------------------------------------------

TEST(MergePath, SplitsSimpleMerge) {
  const std::vector<int> a{1, 3, 5, 7};
  const std::vector<int> b{2, 4, 6, 8};
  // After d merged outputs, i elements came from a.
  // merged: 1 2 3 4 5 6 7 8 -> prefix from a: 1,1,2,2,3,3,4,4
  const index_t expected[]{0, 1, 1, 2, 2, 3, 3, 4, 4};
  for (index_t d = 0; d <= 8; ++d) {
    EXPECT_EQ(pstlb::detail::merge_path_split(a.begin(), 4, b.begin(), 4, d,
                                              std::less<>{}),
              expected[d])
        << "d=" << d;
  }
}

TEST(MergePath, TiesTakeFromAFirst) {
  const std::vector<int> a{5, 5};
  const std::vector<int> b{5, 5};
  // Stable merge: a's fives precede b's.
  EXPECT_EQ(pstlb::detail::merge_path_split(a.begin(), 2, b.begin(), 2, 1,
                                            std::less<>{}),
            1);
  EXPECT_EQ(pstlb::detail::merge_path_split(a.begin(), 2, b.begin(), 2, 2,
                                            std::less<>{}),
            2);
  EXPECT_EQ(pstlb::detail::merge_path_split(a.begin(), 2, b.begin(), 2, 3,
                                            std::less<>{}),
            2);
}

TEST(MergePath, EmptySides) {
  const std::vector<int> a{1, 2, 3};
  const std::vector<int> b{};
  EXPECT_EQ(pstlb::detail::merge_path_split(a.begin(), 3, b.begin(), 0, 2,
                                            std::less<>{}),
            2);
  EXPECT_EQ(pstlb::detail::merge_path_split(b.begin(), 0, a.begin(), 3, 2,
                                            std::less<>{}),
            0);
}

TEST(MergeParts, CoverExactlyOnceAndInOrder) {
  std::vector<int> a(1000);
  std::vector<int> b(1700);
  for (std::size_t i = 0; i < a.size(); ++i) { a[i] = static_cast<int>(3 * i); }
  for (std::size_t i = 0; i < b.size(); ++i) { b[i] = static_cast<int>(2 * i + 1); }
  const auto parts =
      pstlb::detail::make_merge_parts(a.begin(), 1000, b.begin(), 1700, 7,
                                      std::less<>{});
  index_t prev_a = 0;
  index_t prev_b = 0;
  for (const auto& part : parts) {
    EXPECT_EQ(part.a0, prev_a);
    EXPECT_EQ(part.b0, prev_b);
    EXPECT_LE(part.a0, part.a1);
    EXPECT_LE(part.b0, part.b1);
    prev_a = part.a1;
    prev_b = part.b1;
  }
  EXPECT_EQ(prev_a, 1000);
  EXPECT_EQ(prev_b, 1700);

  // Merging the parts independently reproduces std::merge.
  std::vector<int> out(2700), expected(2700);
  std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
  for (const auto& part : parts) {
    std::merge(a.begin() + part.a0, a.begin() + part.a1, b.begin() + part.b0,
               b.begin() + part.b1, out.begin() + part.a0 + part.b0);
  }
  EXPECT_EQ(out, expected);
}

// --- set chunking -----------------------------------------------------------

TEST(SetChunks, NeverSplitEqualRuns) {
  // Long equal runs: every copy of a value must land in exactly one chunk.
  std::vector<int> a(3000);
  std::vector<int> b(2000);
  for (std::size_t i = 0; i < a.size(); ++i) { a[i] = static_cast<int>(i / 100); }
  for (std::size_t i = 0; i < b.size(); ++i) { b[i] = static_cast<int>(i / 50); }
  const auto chunks =
      pstlb::detail::make_set_chunks(a.begin(), 3000, b.begin(), 2000, 16,
                                     std::less<>{});
  index_t prev_a = 0;
  index_t prev_b = 0;
  for (const auto& chunk : chunks) {
    EXPECT_EQ(chunk.a0, prev_a);
    EXPECT_EQ(chunk.b0, prev_b);
    if (chunk.a1 < 3000 && chunk.a1 > 0) {
      // Boundary is the first occurrence of its value.
      EXPECT_NE(a[static_cast<std::size_t>(chunk.a1)],
                a[static_cast<std::size_t>(chunk.a1) - 1]);
    }
    prev_a = chunk.a1;
    prev_b = chunk.b1;
  }
  EXPECT_EQ(prev_a, 3000);
  EXPECT_EQ(prev_b, 2000);
}

TEST(CountingOutputIterator, CountsAssignments) {
  pstlb::detail::counting_output_iterator it;
  const std::vector<int> a{1, 3, 5};
  const std::vector<int> b{2, 3, 4};
  auto end = std::set_union(a.begin(), a.end(), b.begin(), b.end(), it);
  EXPECT_EQ(end.count(), 5);  // 1 2 3 4 5
}

// --- chunk_table ---------------------------------------------------------------

TEST(ChunkTable, CoversRangeWithFixedBounds) {
  for (index_t n : {index_t{1}, index_t{100}, index_t{4096}, index_t{100000}}) {
    const pstlb::backends::chunk_table table(n, 4);
    index_t covered = 0;
    for (index_t c = 0; c < table.count; ++c) {
      index_t b = 0;
      index_t e = 0;
      table.bounds(c, b, e);
      EXPECT_EQ(b, covered);
      EXPECT_LT(b, e);
      covered = e;
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(ChunkTable, RespectsMinChunk) {
  const pstlb::backends::chunk_table table(1000, 64, 256);
  EXPECT_LE(table.count, pstlb::ceil_div(1000, 256));
}

// --- dispatch rules ---------------------------------------------------------------

using pstlb::backends::backend;

TEST(Dispatch, SeqPolicyAlwaysSequential) {
  bool par_ran = false;
  pstlb::exec::dispatch(
      pstlb::exec::seq, 1 << 20, [] {}, [&](const backend&, index_t) { par_ran = true; });
  EXPECT_FALSE(par_ran);
}

TEST(Dispatch, ThresholdGovernsPath) {
  pstlb::exec::steal_policy pol{4};
  pol.seq_threshold = 1000;
  bool par_ran = false;
  pstlb::exec::dispatch(
      pol, 999, [] {}, [&](const backend&, index_t) { par_ran = true; });
  EXPECT_FALSE(par_ran);
  pstlb::exec::dispatch(
      pol, 1000, [] {}, [&](const backend&, index_t) { par_ran = true; });
  EXPECT_TRUE(par_ran);
}

TEST(Dispatch, SingleThreadPolicyStaysSequential) {
  pstlb::exec::steal_policy pol{1};
  pol.seq_threshold = 0;
  bool par_ran = false;
  pstlb::exec::dispatch(
      pol, 1 << 20, [] {}, [&](const backend&, index_t) { par_ran = true; });
  EXPECT_FALSE(par_ran);
}

TEST(Dispatch, ExplicitGrainIsForwarded) {
  pstlb::exec::steal_policy pol{4};
  pol.seq_threshold = 0;
  pol.grain = 12345;
  index_t seen = 0;
  pstlb::exec::dispatch(
      pol, 1 << 20, [] {}, [&](const backend&, index_t grain) { seen = grain; });
  EXPECT_EQ(seen, 12345);
}

TEST(Dispatch, AutoGrainIsPositiveAndBounded) {
  pstlb::exec::steal_policy pol{4};
  pol.seq_threshold = 0;
  index_t seen = 0;
  pstlb::exec::dispatch(
      pol, 100000, [] {}, [&](const backend&, index_t grain) { seen = grain; });
  EXPECT_GT(seen, 0);
  EXPECT_LE(seen, 100000);
}

TEST(Dispatch, NestedRegionTakesTheParallelPath) {
  // A call inside a region skips admission and gets the policy's own width:
  // it runs as a nested region on whatever workers are idle.
  pstlb::exec::steal_policy pol{4};
  pol.seq_threshold = 0;
  std::atomic<int> parallel{0};
  std::atomic<int> sequential{0};
  std::atomic<int> wrong_backend{0};
  pstlb::backends::parallel_for(
      pstlb::backends::steal_backend(4), index_t{4}, index_t{1},
      [&](index_t, index_t, unsigned) {
        pstlb::exec::dispatch(
            pol, 1 << 20, [&] { sequential.fetch_add(1); },
            [&](const backend& be, index_t) {
              parallel.fetch_add(1);
              if (be.id() != pstlb::backends::backend_id::steal || be.threads() != 4) {
                wrong_backend.fetch_add(1);
              }
            });
      });
  EXPECT_EQ(parallel.load(), 4);
  EXPECT_EQ(sequential.load(), 0);
  EXPECT_EQ(wrong_backend.load(), 0);
}

}  // namespace

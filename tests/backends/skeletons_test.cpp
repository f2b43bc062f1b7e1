// Skeleton tests over every backend: parallel_for coverage,
// parallel_reduce correctness, parallel_find first-match semantics, and the
// single-pass decoupled-lookback scan/pack: prefix identity and pack
// stability at the production chunk floor and at tiny chunks, non-commutative
// operators, adversarial chunk-completion order.
#include "backends/skeletons.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "backends/scan_lookback.hpp"
#include "support/policies.hpp"

namespace pstlb::backends {
namespace {

PSTLB_SKELETON_TEST(SkeletonTest, ForCoversRangeOnce) {
  auto backend = this->make();
  for (index_t n : {index_t{0}, index_t{1}, index_t{17}, index_t{1000}, index_t{65536}}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    parallel_for(backend, n, index_t{7}, [&](index_t b, index_t e, unsigned) {
      for (index_t i = b; i < e; ++i) { hits[static_cast<std::size_t>(i)].fetch_add(1); }
    });
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << n << ":" << i;
    }
  }
}

PSTLB_SKELETON_TEST(SkeletonTest, ForTidStaysBelowSlots) {
  auto backend = this->make();
  const unsigned slots = backend.threads();
  std::atomic<bool> bad{false};
  parallel_for(backend, index_t{10000}, index_t{16},
               [&](index_t, index_t, unsigned tid) {
                 if (tid >= slots) { bad.store(true); }
               });
  EXPECT_FALSE(bad.load());
}

PSTLB_SKELETON_TEST(SkeletonTest, ReduceSumsExactly) {
  auto backend = this->make();
  for (index_t n : {index_t{0}, index_t{1}, index_t{1000}, index_t{99991}}) {
    const long long expected = static_cast<long long>(n) * (n - 1) / 2;
    const long long sum = parallel_reduce(
        backend, n, index_t{64}, 0LL,
        [](index_t b, index_t e) {
          long long acc = 0;
          for (index_t i = b; i < e; ++i) { acc += i; }
          return acc;
        },
        std::plus<>{});
    EXPECT_EQ(sum, n == 0 ? 0 : expected);
  }
}

PSTLB_SKELETON_TEST(SkeletonTest, ReduceWithNonCommutativeSlotOrderStillAssociates) {
  // String concatenation is associative but not commutative; per-slot
  // partials may group differently, but the multiset of characters and the
  // relative order within each contiguous block is preserved. We check the
  // weaker (and guaranteed) property: same length, same character counts.
  auto backend = this->make();
  const index_t n = 2000;
  const std::string result = parallel_reduce(
      backend, n, index_t{37}, std::string{},
      [](index_t b, index_t e) {
        std::string s;
        for (index_t i = b; i < e; ++i) { s.push_back('a' + static_cast<char>(i % 26)); }
        return s;
      },
      [](std::string a, std::string b) { return std::move(a) + b; });
  EXPECT_EQ(result.size(), static_cast<std::size_t>(n));
  std::array<int, 26> counts{};
  for (char ch : result) { counts[static_cast<std::size_t>(ch - 'a')]++; }
  for (int c = 0; c < 26; ++c) {
    int expected = 0;
    for (index_t i = 0; i < n; ++i) { expected += (i % 26 == c) ? 1 : 0; }
    EXPECT_EQ(counts[static_cast<std::size_t>(c)], expected);
  }
}

PSTLB_SKELETON_TEST(SkeletonTest, FindReturnsFirstMatch) {
  auto backend = this->make();
  const index_t n = 100000;
  std::vector<int> data(static_cast<std::size_t>(n), 0);
  data[70001] = 1;
  data[70002] = 1;
  data[99999] = 1;
  const index_t hit = parallel_find(backend, n, index_t{128}, [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) {
      if (data[static_cast<std::size_t>(i)] == 1) { return i; }
    }
    return e;
  });
  EXPECT_EQ(hit, 70001);
}

PSTLB_SKELETON_TEST(SkeletonTest, FindMissReturnsN) {
  auto backend = this->make();
  const index_t n = 5000;
  const index_t hit =
      parallel_find(backend, n, index_t{64}, [](index_t, index_t e) { return e; });
  EXPECT_EQ(hit, n);
}

PSTLB_SKELETON_TEST(SkeletonTest, ScanMatchesSequentialPrefix) {
  // The production chunk floor: up to 2048 elements are one chunk on the
  // caller, 2049 is the smallest chained input.
  auto backend = this->make();
  for (index_t n : {index_t{1}, index_t{5}, index_t{2048}, index_t{2049},
                    index_t{4096}, index_t{100000}}) {
    std::vector<long long> input(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) { input[static_cast<std::size_t>(i)] = i % 97 + 1; }
    std::vector<long long> output(static_cast<std::size_t>(n));
    parallel_scan<long long>(
        backend, n, std::plus<>{},
        [&](index_t b, index_t e) {
          long long acc = 0;
          for (index_t i = b; i < e; ++i) { acc += input[static_cast<std::size_t>(i)]; }
          return acc;
        },
        [&](index_t b, index_t e, long long carry, bool has_carry) {
          long long run = has_carry ? carry : 0;
          for (index_t i = b; i < e; ++i) {
            run += input[static_cast<std::size_t>(i)];
            output[static_cast<std::size_t>(i)] = run;
          }
          return run;
        });
    long long expected = 0;
    for (index_t i = 0; i < n; ++i) {
      expected += input[static_cast<std::size_t>(i)];
      ASSERT_EQ(output[static_cast<std::size_t>(i)], expected) << n << ":" << i;
    }
  }
}

PSTLB_SKELETON_TEST(SkeletonTest, PackKeepsOrderAndCount) {
  // The production chunk floor (Pack1p* below uses tiny chunks).
  auto backend = this->make();
  const index_t n = 50000;
  std::vector<int> input(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) { input[static_cast<std::size_t>(i)] = static_cast<int>(i); }
  std::vector<int> output(static_cast<std::size_t>(n), -1);
  auto is_kept = [](int v) { return v % 3 == 0; };
  const index_t total = parallel_pack(
      backend, n,
      [&](index_t b, index_t e) {
        index_t count = 0;
        for (index_t i = b; i < e; ++i) { count += is_kept(input[static_cast<std::size_t>(i)]); }
        return count;
      },
      [&](index_t b, index_t e, index_t offset) {
        const index_t start = offset;
        for (index_t i = b; i < e; ++i) {
          if (is_kept(input[static_cast<std::size_t>(i)])) {
            output[static_cast<std::size_t>(offset++)] = input[static_cast<std::size_t>(i)];
          }
        }
        return offset - start;
      });
  EXPECT_EQ(total, (n + 2) / 3);
  for (index_t i = 0; i < total; ++i) {
    ASSERT_EQ(output[static_cast<std::size_t>(i)], static_cast<int>(i * 3));
  }
}

PSTLB_SKELETON_TEST(SkeletonTest, Scan1pMatchesSequentialPrefix) {
  auto backend = this->make();
  // Tiny min_chunk forces many chunks so the lookback protocol chains deep
  // even on small inputs.
  for (index_t n : {index_t{1}, index_t{63}, index_t{4096}, index_t{100000}}) {
    std::vector<long long> input(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) { input[static_cast<std::size_t>(i)] = i % 97 + 1; }
    std::vector<long long> output(static_cast<std::size_t>(n));
    parallel_scan<long long>(
        backend, n, std::plus<>{},
        [&](index_t b, index_t e) {
          long long acc = 0;
          for (index_t i = b; i < e; ++i) { acc += input[static_cast<std::size_t>(i)]; }
          return acc;
        },
        [&](index_t b, index_t e, long long carry, bool has_carry) {
          long long run = has_carry ? carry : 0;
          for (index_t i = b; i < e; ++i) {
            run += input[static_cast<std::size_t>(i)];
            output[static_cast<std::size_t>(i)] = run;
          }
          return run;
        },
        /*min_chunk=*/64);
    long long expected = 0;
    for (index_t i = 0; i < n; ++i) {
      expected += input[static_cast<std::size_t>(i)];
      ASSERT_EQ(output[static_cast<std::size_t>(i)], expected) << n << ":" << i;
    }
  }
}

PSTLB_SKELETON_TEST(SkeletonTest, Scan1pNonCommutativeStringConcat) {
  // String concatenation is associative but not commutative: any combine
  // applied out of sequence order produces a detectably wrong prefix. The
  // lookback accumulates aggregates right-to-left, which must preserve it.
  auto backend = this->make();
  const index_t n = 512;
  auto letter = [](index_t i) { return static_cast<char>('a' + i % 26); };
  std::vector<std::string> output(static_cast<std::size_t>(n));
  parallel_scan<std::string>(
      backend, n, [](std::string a, std::string b) { return std::move(a) + b; },
      [&](index_t b, index_t e) {
        std::string s;
        for (index_t i = b; i < e; ++i) { s.push_back(letter(i)); }
        return s;
      },
      [&](index_t b, index_t e, std::string carry, bool has_carry) {
        std::string run = has_carry ? std::move(carry) : std::string{};
        for (index_t i = b; i < e; ++i) {
          run.push_back(letter(i));
          output[static_cast<std::size_t>(i)] = run;
        }
        return run;
      },
      /*min_chunk=*/32);
  std::string expected;
  for (index_t i = 0; i < n; ++i) {
    expected.push_back(letter(i));
    ASSERT_EQ(output[static_cast<std::size_t>(i)], expected) << i;
  }
}

PSTLB_SKELETON_TEST(SkeletonTest, Scan1pAdversarialCompletionOrder) {
  // Stall selected chunks so successors publish their aggregates first and
  // lookbacks must chain across long AGGREGATE runs and spin on EMPTY
  // descriptors. Chunk 0 is the slowest: its body, the only one that runs
  // without a carry, sleeps before publishing the only PREFIX the chain can
  // terminate on. Every fifth chunk also stalls in both of its callbacks, so
  // the stall fires on the fast path and on the decoupled path alike.
  auto backend = this->make();
  const index_t chunk = 64;
  const index_t n = chunk * 48;
  std::vector<long long> input(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) { input[static_cast<std::size_t>(i)] = (i * 7) % 31; }
  std::vector<long long> output(static_cast<std::size_t>(n), -1);
  auto stall_every_fifth = [&](index_t b) {
    if ((b / chunk) % 5 == 1) { std::this_thread::sleep_for(std::chrono::milliseconds(2)); }
  };
  parallel_scan<long long>(
      backend, n, std::plus<>{},
      [&](index_t b, index_t e) {
        stall_every_fifth(b);
        long long acc = 0;
        for (index_t i = b; i < e; ++i) { acc += input[static_cast<std::size_t>(i)]; }
        return acc;
      },
      [&](index_t b, index_t e, long long carry, bool has_carry) {
        if (b == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        } else {
          stall_every_fifth(b);
        }
        long long run = has_carry ? carry : 0;
        for (index_t i = b; i < e; ++i) {
          run += input[static_cast<std::size_t>(i)];
          output[static_cast<std::size_t>(i)] = run;
        }
        return run;
      },
      /*min_chunk=*/chunk);
  long long expected = 0;
  for (index_t i = 0; i < n; ++i) {
    expected += input[static_cast<std::size_t>(i)];
    ASSERT_EQ(output[static_cast<std::size_t>(i)], expected) << i;
  }
}

PSTLB_SKELETON_TEST(SkeletonTest, Pack1pKeepsOrderCountAndTotal) {
  auto backend = this->make();
  for (index_t n : {index_t{1}, index_t{100}, index_t{50000}}) {
    std::vector<int> input(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) { input[static_cast<std::size_t>(i)] = static_cast<int>(i); }
    std::vector<int> output(static_cast<std::size_t>(n), -1);
    auto is_kept = [](int v) { return v % 3 == 0; };
    const index_t total = parallel_pack(
        backend, n,
        [&](index_t b, index_t e) {
          index_t count = 0;
          for (index_t i = b; i < e; ++i) { count += is_kept(input[static_cast<std::size_t>(i)]); }
          return count;
        },
        [&](index_t b, index_t e, index_t offset) {
          const index_t start = offset;
          for (index_t i = b; i < e; ++i) {
            if (is_kept(input[static_cast<std::size_t>(i)])) {
              output[static_cast<std::size_t>(offset++)] = input[static_cast<std::size_t>(i)];
            }
          }
          return offset - start;
        },
        /*min_chunk=*/64);
    ASSERT_EQ(total, (n + 2) / 3) << n;
    for (index_t i = 0; i < total; ++i) {
      ASSERT_EQ(output[static_cast<std::size_t>(i)], static_cast<int>(i * 3)) << n;
    }
  }
}

TEST(ChunkTable, MinChunkAndOversubAreConfigurable) {
  // The defaults: slots * scan_oversub chunks of at least scan_min_chunk.
  EXPECT_EQ(scan_min_chunk, 2048);
  EXPECT_EQ(scan_oversub, 4);
  const chunk_table wide(1 << 20, 4);
  EXPECT_EQ(wide.count, 16);
  const chunk_table narrow(8192, 4);
  EXPECT_EQ(narrow.count, 4);  // the 2048 floor beats slots * oversub
  EXPECT_EQ(narrow.chunk, 2048);
  // Constructor parameters override the defaults.
  const chunk_table fine(1 << 20, 4, /*min_chunk=*/256, /*oversub=*/8);
  EXPECT_EQ(fine.count, 32);  // slots * oversub
  EXPECT_GE(fine.chunk, 256);
  const chunk_table floor(4096, 4, /*min_chunk=*/1024, /*oversub=*/8);
  EXPECT_EQ(floor.count, 4);  // min_chunk floor beats slots * oversub
  EXPECT_EQ(floor.chunk, 1024);
}

TEST(LookbackChunkSize, RespectsFloorAndCacheCap) {
  // Small inputs collapse to the floor; huge inputs are capped so the
  // in-chunk re-read stays cache-resident.
  EXPECT_EQ(lookback_chunk_size(1 << 12, 8, 2048), 2048);
  EXPECT_EQ(lookback_chunk_size(index_t{1} << 30, 8, 2048), index_t{1} << 15);
  EXPECT_EQ(lookback_chunk_size(1 << 20, 8, 512), 2048);  // n / (threads * 64)
}

TEST(Nesting, NestedLoopsRunAsPoolRegions) {
  // Each inner loop is a region of its own on the one pool: the outer loop
  // holds the workers it claimed, so the inner ones get whatever is idle or
  // run on their caller alone — never deadlocking, never losing a block.
  const backend outer = fork_join_backend(4);
  std::atomic<int> count{0};
  std::atomic<int> wide_tids{0};
  parallel_for(outer, index_t{8}, index_t{1}, [&](index_t b, index_t e, unsigned) {
    const backend inner = fork_join_backend(4);
    for (index_t i = b; i < e; ++i) {
      parallel_for(inner, index_t{100}, index_t{10},
                   [&](index_t ib, index_t ie, unsigned tid) {
                     count.fetch_add(static_cast<int>(ie - ib));
                     if (tid >= inner.threads()) { wide_tids.fetch_add(1); }
                   });
    }
  });
  EXPECT_EQ(count.load(), 800);
  EXPECT_EQ(wide_tids.load(), 0);
}

TEST(FitGrain, KeepsEveryLoopWithinThirtyTwoBitChunkIds) {
  // 2^32 - 1 chunks still fit; 2^32 and 2^32 + 5 one-element chunks raise
  // the grain just enough. Only the arithmetic runs — no loop iterates.
  const index_t fits = max_chunks;
  EXPECT_EQ(fit_grain(fits, 1), 1);
  EXPECT_EQ(fit_grain(fits + 1, 1), 2);
  EXPECT_EQ(fit_grain(fits + 6, 1), 2);
  EXPECT_EQ(fit_grain(3 * (fits + 1), 3), 4);
  for (index_t n : {fits, fits + 1, fits + 6, 3 * (fits + 1)}) {
    EXPECT_LE(ceil_div(n, fit_grain(n, 1)), max_chunks) << n;
  }
  EXPECT_EQ(fit_grain(100, 0), 1);
  EXPECT_EQ(fit_grain(100, 7), 7);
}

TEST(StaticClaimRule, SharesDifferByAtMostOneChunk) {
  // 25 one-element chunks on 4 participants: 7, 6, 6, 6 — participant t owns
  // its share of the chunk ids, so the counts are exact.
  std::array<std::atomic<int>, 4> per_tid{};
  parallel_for(fork_join_backend(4), index_t{25}, index_t{1},
               [&](index_t b, index_t e, unsigned tid) {
                 per_tid[tid].fetch_add(static_cast<int>(e - b));
               });
  EXPECT_EQ(per_tid[0].load(), 7);
  for (unsigned t = 1; t < 4; ++t) { EXPECT_EQ(per_tid[t].load(), 6); }
}

TEST(StaticClaimRule, CoarseGrainStillGivesEveryParticipantASlice) {
  // A grain of n/2 on 4 participants: every participant still runs one
  // quarter, as a slice of ceil(n / threads) elements.
  std::array<std::atomic<index_t>, 4> per_tid{};
  std::atomic<int> blocks{0};
  parallel_for(fork_join_backend(4), index_t{100}, index_t{50},
               [&](index_t b, index_t e, unsigned tid) {
                 per_tid[tid].fetch_add(e - b);
                 blocks.fetch_add(1);
               });
  EXPECT_EQ(blocks.load(), 4);
  for (unsigned t = 0; t < 4; ++t) { EXPECT_EQ(per_tid[t].load(), 25) << t; }
}

TEST(TaskFutures, ConcurrentCallersOfDifferentWidthsStayBelowTheirSlots) {
  // A narrow caller sizes its scratch, then a wider caller grows the shared
  // task pool while the narrow one keeps running: every tid must stay below
  // its own backend's slots and be held by one chunk at a time, whichever
  // pool worker runs it.
  std::atomic<int> bad{0};
  std::atomic<bool> sized{false};
  std::atomic<bool> grown{false};
  const auto rounds = [&bad](unsigned width, auto&& keep_going) {
    const backend be = task_futures_backend(width);
    std::vector<std::atomic<int>> occupancy(be.threads());
    keep_going(0);
    for (int round = 1; keep_going(round); ++round) {
      parallel_for(be, index_t{2048}, index_t{16}, [&](index_t, index_t, unsigned tid) {
        if (tid >= occupancy.size() || occupancy[tid].fetch_add(1) != 0) {
          bad.fetch_add(1);
          return;
        }
        std::atomic<int> spin{0};
        while (spin.fetch_add(1, std::memory_order_relaxed) < 50) {}
        occupancy[tid].fetch_sub(1);
      });
    }
  };
  std::thread narrow([&] {
    int after_growth = 0;
    rounds(2, [&](int round) {
      if (round == 0) { sized.store(true); }
      if (grown.load()) { ++after_growth; }
      return after_growth <= 20;
    });
  });
  std::thread wide([&] {
    while (!sized.load()) { std::this_thread::yield(); }
    rounds(8, [&](int round) {
      if (round > 1) { grown.store(true); }
      return round <= 20;
    });
  });
  narrow.join();
  wide.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(DefaultGrain, ProducesReasonableChunkCounts) {
  EXPECT_EQ(default_grain(0, 4), 1);
  EXPECT_EQ(default_grain(1, 4), 1);
  EXPECT_GE(default_grain(1 << 20, 4), 1);
  // ~8 chunks per thread.
  EXPECT_NEAR(static_cast<double>((1 << 20) / default_grain(1 << 20, 4)), 32.0, 8.0);
}

}  // namespace
}  // namespace pstlb::backends

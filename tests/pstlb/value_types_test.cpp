// Value-type coverage: the algorithms must work for the paper's element
// types (double, float — Section 3.2 / Section 5.8) and for non-trivial
// user types (strings, aggregates with invariants).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pstlb/pstlb.hpp"
#include "support/policies.hpp"

namespace {

using pstlb::index_t;

template <class T>
std::vector<T> numeric_input(index_t n) {
  std::vector<T> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = static_cast<T>((i * 17 + 3) % 997);
  }
  return v;
}

template <class T>
class NumericTypes : public ::testing::Test {};

using ElementTypes = ::testing::Types<float, double, std::int32_t, std::int64_t,
                                      std::uint16_t>;
TYPED_TEST_SUITE(NumericTypes, ElementTypes);

TYPED_TEST(NumericTypes, ReduceSortScanRoundTrip) {
  auto pol = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
  auto v = numeric_input<TypeParam>(20000);

  const auto expected_sum = std::accumulate(v.begin(), v.end(), TypeParam{});
  EXPECT_EQ(pstlb::reduce(pol, v.begin(), v.end(), TypeParam{}), expected_sum);

  pstlb::sort(pol, v.begin(), v.end());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));

  std::vector<TypeParam> scanned(v.size());
  pstlb::inclusive_scan(pol, v.begin(), v.end(), scanned.begin());
  EXPECT_EQ(scanned.back(), expected_sum);
}

TYPED_TEST(NumericTypes, FindAndCount) {
  auto pol = pstlb::test::make_eager(pstlb::backends::backend_id::omp_dynamic);
  auto v = numeric_input<TypeParam>(30000);
  v[12345] = TypeParam{998};
  EXPECT_EQ(pstlb::find(pol, v.begin(), v.end(), TypeParam{998}) - v.begin(), 12345);
  EXPECT_EQ(pstlb::count(pol, v.begin(), v.end(), TypeParam{998}), 1);
}

TEST(StringValues, SortAndUnique) {
  auto pol = pstlb::test::make_eager(pstlb::backends::backend_id::task_futures);
  std::vector<std::string> v;
  for (int i = 0; i < 10000; ++i) {
    v.push_back("key-" + std::to_string((i * 7919) % 500));
  }
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  pstlb::sort(pol, v.begin(), v.end());
  EXPECT_EQ(v, expected);

  auto end = pstlb::unique(pol, v.begin(), v.end());
  auto expected_end = std::unique(expected.begin(), expected.end());
  EXPECT_EQ(end - v.begin(), expected_end - expected.begin());
}

TEST(StringValues, EveryScratchSiteMatchesStd) {
  // The parallel paths that stage elements through detail::scratch_buffer
  // get default-constructed strings there; each must return exactly what
  // its std algorithm returns.
  const auto pol = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
  const auto strings = [](std::size_t n) {
    std::vector<std::string> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      v.push_back("k" + std::to_string((i * 7919) % 997) + "#" + std::to_string(i));
    }
    return v;
  };
  // More than one scan chunk, so stable_partition and remove_if pack.
  const auto input = strings(5000);
  auto halves = input;  // two sorted runs (inplace_merge)
  std::sort(halves.begin(), halves.begin() + 2500);
  std::sort(halves.begin() + 2500, halves.end());
  const auto odd = [](const std::string& s) { return s.back() % 2 != 0; };
  // Orders by the part before '#' only, so equal keys show a stable sort's
  // order; above sample_sort_min stable_sort takes samplesort.
  const auto by_key = [](const std::string& a, const std::string& b) {
    return std::string_view(a).substr(0, a.find('#')) <
           std::string_view(b).substr(0, b.find('#'));
  };
  const auto large =
      strings(static_cast<std::size_t>(pstlb::detail::sample_sort_min) + 1000);

  struct outcome {
    std::vector<std::string> values;
    std::ptrdiff_t at = 0;  // offset of the returned iterator
  };
  // Each case runs the pstlb algorithm when `par` is set, else the std one.
  const std::pair<const char*, std::function<outcome(bool)>> cases[] = {
      {"rotate",
       [&](bool par) {
         auto v = input;
         auto it = par ? pstlb::rotate(pol, v.begin(), v.begin() + 1234, v.end())
                       : std::rotate(v.begin(), v.begin() + 1234, v.end());
         return outcome{v, it - v.begin()};
       }},
      {"shift_left",
       [&](bool par) {
         auto v = input;
         auto it = par ? pstlb::shift_left(pol, v.begin(), v.end(), 321)
                       : std::shift_left(v.begin(), v.end(), 321);
         return outcome{{v.begin(), it}, it - v.begin()};
       }},
      {"shift_right",
       [&](bool par) {
         auto v = input;
         auto it = par ? pstlb::shift_right(pol, v.begin(), v.end(), 321)
                       : std::shift_right(v.begin(), v.end(), 321);
         return outcome{{it, v.end()}, it - v.begin()};
       }},
      {"stable_partition",
       [&](bool par) {
         auto v = input;
         auto it = par ? pstlb::stable_partition(pol, v.begin(), v.end(), odd)
                       : std::stable_partition(v.begin(), v.end(), odd);
         return outcome{v, it - v.begin()};
       }},
      {"inplace_merge",
       [&](bool par) {
         auto v = halves;
         if (par) {
           pstlb::inplace_merge(pol, v.begin(), v.begin() + 2500, v.end());
         } else {
           std::inplace_merge(v.begin(), v.begin() + 2500, v.end());
         }
         return outcome{v, 0};
       }},
      // The tail past the returned position is unspecified; keep the kept part.
      {"remove_if",
       [&](bool par) {
         auto v = input;
         auto it = par ? pstlb::remove_if(pol, v.begin(), v.end(), odd)
                       : std::remove_if(v.begin(), v.end(), odd);
         return outcome{{v.begin(), it}, it - v.begin()};
       }},
      // k = 1000 is above n / partial_sort_copy_seq_ratio, so the call sorts
      // a copy of the input instead of running std::partial_sort_copy.
      {"partial_sort_copy",
       [&](bool par) {
         std::vector<std::string> out(1000);
         auto it = par ? pstlb::partial_sort_copy(pol, input.begin(), input.end(),
                                                  out.begin(), out.end())
                       : std::partial_sort_copy(input.begin(), input.end(),
                                                out.begin(), out.end());
         return outcome{out, it - out.begin()};
       }},
      {"stable_sort",
       [&](bool par) {
         auto v = large;
         if (par) {
           pstlb::stable_sort(pol, v.begin(), v.end(), by_key);
         } else {
           std::stable_sort(v.begin(), v.end(), by_key);
         }
         return outcome{v, 0};
       }},
  };
  for (const auto& [name, run] : cases) {
    const outcome expected = run(false);
    const outcome got = run(true);
    EXPECT_EQ(got.values, expected.values) << name;
    EXPECT_EQ(got.at, expected.at) << name;
  }
}

struct account {
  int id = 0;
  double balance = 0;
  friend bool operator==(const account&, const account&) = default;
};

TEST(AggregateValues, TransformReducePartition) {
  auto pol = pstlb::test::make_eager(pstlb::backends::backend_id::fork_join);
  std::vector<account> accounts;
  for (int i = 0; i < 25000; ++i) {
    accounts.push_back({i, static_cast<double>((i * 31) % 1000) - 200.0});
  }
  const double total = pstlb::transform_reduce(
      pol, accounts.begin(), accounts.end(), 0.0, std::plus<>{},
      [](const account& a) { return a.balance; });
  double expected = 0;
  for (const auto& a : accounts) { expected += a.balance; }
  EXPECT_DOUBLE_EQ(total, expected);

  auto overdrawn = [](const account& a) { return a.balance < 0; };
  const auto count =
      pstlb::count_if(pol, accounts.begin(), accounts.end(), overdrawn);
  auto boundary =
      pstlb::stable_partition(pol, accounts.begin(), accounts.end(), overdrawn);
  EXPECT_EQ(boundary - accounts.begin(), count);
  EXPECT_TRUE(std::all_of(accounts.begin(), boundary, overdrawn));
  // Stability: ids still ascending within each side.
  EXPECT_TRUE(std::is_sorted(accounts.begin(), boundary,
                             [](const account& a, const account& b) {
                               return a.id < b.id;
                             }));
  EXPECT_TRUE(std::is_sorted(boundary, accounts.end(),
                             [](const account& a, const account& b) {
                               return a.id < b.id;
                             }));
}

TEST(MoveOnlyish, SortOfHeavyValuesMovesNotCopies) {
  // Values with observable copy/move counters: parallel sort must not lose
  // or duplicate payloads.
  struct heavy {
    std::string payload;
    int key = 0;
  };
  auto pol = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
  std::vector<heavy> v;
  for (int i = 0; i < 5000; ++i) {
    v.push_back({std::string(50, static_cast<char>('a' + i % 26)), (i * 733) % 5000});
  }
  pstlb::sort(pol, v.begin(), v.end(),
              [](const heavy& a, const heavy& b) { return a.key < b.key; });
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), [](const heavy& a, const heavy& b) {
    return a.key < b.key;
  }));
  // All payloads intact (none moved-from/empty).
  EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                          [](const heavy& h) { return h.payload.size() == 50; }));
}

TEST(MoveOnly, SortFallsBackToMergesortPipeline) {
  // Samplesort needs copy-constructible values (materialized splitters);
  // move-only types must silently take the mergesort pipeline — even at a
  // size that would route copyable values to samplesort — and still sort
  // correctly.
  struct move_only {
    std::unique_ptr<int> p;
    move_only() = default;
    explicit move_only(int v) : p(std::make_unique<int>(v)) {}
    move_only(move_only&&) = default;
    move_only& operator=(move_only&&) = default;
  };
  auto pol = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
  std::vector<move_only> v;
  for (int i = 0; i < pstlb::detail::sample_sort_min; ++i) {
    v.emplace_back((i * 733) % 9973);
  }
  auto less = [](const move_only& a, const move_only& b) { return *a.p < *b.p; };
  pstlb::sort(pol, v.begin(), v.end(), less);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), less));
  EXPECT_STREQ(pstlb::detail::last_sort_traffic().algorithm, "merge");
  EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                          [](const move_only& m) { return m.p != nullptr; }));
}

// Copy constructor that throws on a schedule (local classes cannot hold the
// static counters). Armed only inside the test below.
struct flaky {
  int key = 0;
  static inline std::atomic<int> copies{0};
  static inline std::atomic<bool> arm{false};
  flaky() = default;
  explicit flaky(int k) : key(k) {}
  flaky(const flaky& o) : key(o.key) {
    if (arm.load() && copies.fetch_add(1) % 197 == 196) {
      throw std::runtime_error("copy failed");
    }
  }
  flaky& operator=(const flaky&) = default;
  flaky(flaky&&) = default;
  flaky& operator=(flaky&&) = default;
};

TEST(ThrowingCopy, SamplesortSurvivesSplitterCopyThrow) {
  // Splitter sampling copies elements; a copy constructor that throws must
  // propagate as exactly one exception, not hang or crash the pipeline.
  // The samplesort pipeline is called directly: pstlb::sort would route
  // these 30000 elements to mergesort.
  auto pol = pstlb::test::make_eager(pstlb::backends::backend_id::steal);
  const pstlb::backends::backend be(pol.backend, pol.threads);
  std::vector<flaky> v;
  for (int i = 0; i < 30000; ++i) { v.emplace_back((i * 419) % 10007); }
  flaky::arm.store(true);
  int caught = 0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    try {
      pstlb::detail::parallel_samplesort<false>(
          be, v.begin(), static_cast<pstlb::index_t>(v.size()),
          [](const flaky& a, const flaky& b) { return a.key < b.key; });
    } catch (const std::runtime_error&) {
      ++caught;
    }
  }
  flaky::arm.store(false);
  EXPECT_GT(caught, 0);  // the sampling pass makes >197 copies per sort
  pstlb::sort(pol, v.begin(), v.end(),
              [](const flaky& a, const flaky& b) { return a.key < b.key; });
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), [](const flaky& a, const flaky& b) {
    return a.key < b.key;
  }));
}

}  // namespace

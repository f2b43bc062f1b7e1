#include "trace/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "backends/backend.hpp"
#include "trace/sched_metrics.hpp"
#include "trace/trace.hpp"

namespace pstlb::trace {
namespace {

// --- Minimal JSON validator -------------------------------------------------
// Recursive-descent syntax check (no DOM): enough to guarantee that
// ui.perfetto.dev's JSON loader will not reject the export for a syntax
// error. Returns the position after the parsed value, or npos on error.

class json_checker {
 public:
  explicit json_checker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) { return false; }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) { return false; }
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) { return false; }
      skip_ws();
      if (peek() != ':') { return false; }
      ++pos_;
      skip_ws();
      if (!value()) { return false; }
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) { return false; }
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') { return false; }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') { ++pos_; }
      ++pos_;
    }
    if (pos_ >= text_.size()) { return false; }
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') { ++pos_; }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) { return false; }
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Distinct `"tid":N` values among events whose line contains `needle`.
std::set<long> tids_matching(const std::string& json, const std::string& needle) {
  std::set<long> tids;
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    // Each event object is self-contained; find its "tid": within a small
    // window around the match.
    const std::size_t obj_begin = json.rfind('{', pos);
    const std::size_t tid_pos = json.find("\"tid\":", obj_begin);
    if (tid_pos != std::string::npos) {
      tids.insert(std::strtol(json.c_str() + tid_pos + 6, nullptr, 10));
    }
    pos += needle.size();
  }
  return tids;
}

constexpr unsigned kThreads = 4;
constexpr index_t kN = index_t{1} << 16;
constexpr index_t kGrain = index_t{1} << 12;

void run_fork_join() {
  const backends::backend be = backends::fork_join_backend(kThreads);
  std::vector<double> data(static_cast<std::size_t>(kN), 1.0);
  be.for_blocks(kN, kGrain, nullptr,
                [&](index_t b, index_t e, unsigned) {
                  for (index_t i = b; i < e; ++i) {
                    data[static_cast<std::size_t>(i)] += 1.0;
                  }
                });
}

TEST(ChromeTrace, ExportsValidJsonWithOneTrackPerWorker) {
  set_enabled(true);
  const sched_metrics before = collect();
  run_fork_join();
  const sched_metrics window = delta(before, collect());
  std::ostringstream os;
  write_chrome_trace(os);
  set_enabled(false);
  const std::string json = os.str();

  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(json_checker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);

  // One track per participant: the caller + 3 pool workers all executed
  // fork_join chunks, so >= kThreads distinct tids carry chunk events.
  const std::set<long> chunk_tids = tids_matching(json, "\"name\":\"chunk\"");
  EXPECT_GE(chunk_tids.size(), kThreads);
  // And the window's accounting saw the same participation.
  unsigned active_threads = 0;
  for (const thread_metrics& t : window.threads) {
    if (t.chunks > 0) { ++active_threads; }
  }
  EXPECT_GE(active_threads, kThreads);
}

TEST(ChromeTrace, MetricsConsistentWithKnownForkJoinShape) {
  set_enabled(true);
  const sched_metrics before = collect();
  run_fork_join();
  const sched_metrics window = delta(before, collect());
  set_enabled(false);

  // Static fork-join, n = 2^16, grain = 2^12, 4 threads: each thread owns a
  // 2^14 slice walked in 4 blocks -> exactly 16 chunks covering every
  // element, no steals, no spawns, no splits.
  EXPECT_EQ(window.chunks(), 16u);
  EXPECT_EQ(window.chunk_elems(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(window.steals_ok(), 0u);
  EXPECT_EQ(window.steals_failed(), 0u);
  EXPECT_EQ(window.tasks_spawned(), 0u);
  EXPECT_EQ(window.range_splits(), 0u);
  // All chunks are exactly 2^12 elements: both percentiles hit that bucket.
  EXPECT_DOUBLE_EQ(window.chunk_size_p50(), static_cast<double>(kGrain));
  EXPECT_DOUBLE_EQ(window.chunk_size_p95(), static_cast<double>(kGrain));
  EXPECT_GT(window.busy_s(), 0.0);
  EXPECT_GE(window.load_imbalance(), 1.0);
}

TEST(ChromeTrace, FileExportRoundTrips) {
  set_enabled(true);
  run_fork_join();
  set_enabled(false);
  const std::string path = ::testing::TempDir() + "pstlb_trace_test.json";
  ASSERT_TRUE(write_chrome_trace_file(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(json_checker(buffer.str()).valid());
}

}  // namespace
}  // namespace pstlb::trace

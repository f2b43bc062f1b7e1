// The PSTLB_* environment registry: accessor semantics and the
// unknown-variable (typo) detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "pstlb/env.hpp"

namespace pstlb::env {
namespace {

class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~EnvVar() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(EnvAccessors, UnsignedOr) {
  EXPECT_EQ(unsigned_or("PSTLB_TEST_UNSET_12345", 7u), 7u);
  {
    EnvVar v("PSTLB_TEST_U", "42");
    EXPECT_EQ(unsigned_or("PSTLB_TEST_U", 7u), 42u);
  }
  {
    EnvVar v("PSTLB_TEST_U", "");
    EXPECT_EQ(unsigned_or("PSTLB_TEST_U", 7u), 7u);
  }
  {
    EnvVar v("PSTLB_TEST_U", "banana");
    EXPECT_EQ(unsigned_or("PSTLB_TEST_U", 7u), 7u);
  }
  // Knobs are not thread counts: every value that fits in unsigned counts,
  // anything larger or negative falls back.
  for (const char* value : {"1048577", "2097152", "4294967295"}) {
    EnvVar v("PSTLB_TEST_U", value);
    EXPECT_EQ(unsigned_or("PSTLB_TEST_U", 7u), std::stoul(value)) << value;
  }
  for (const char* value : {"4294967296", "-1"}) {
    EnvVar v("PSTLB_TEST_U", value);
    EXPECT_EQ(unsigned_or("PSTLB_TEST_U", 7u), 7u) << value;
  }
}

TEST(EnvAccessors, Truthy) {
  EXPECT_FALSE(truthy("PSTLB_TEST_UNSET_12345"));
  {
    EnvVar v("PSTLB_TEST_T", "1");
    EXPECT_TRUE(truthy("PSTLB_TEST_T"));
  }
  {
    EnvVar v("PSTLB_TEST_T", "0");
    EXPECT_FALSE(truthy("PSTLB_TEST_T"));
  }
  {
    EnvVar v("PSTLB_TEST_T", "");
    EXPECT_FALSE(truthy("PSTLB_TEST_T"));
  }
}

TEST(EnvAccessors, StringOr) {
  EXPECT_EQ(string_or("PSTLB_TEST_UNSET_12345", "dflt"), "dflt");
  {
    EnvVar v("PSTLB_TEST_S", "trace.json");
    EXPECT_EQ(string_or("PSTLB_TEST_S", "dflt"), "trace.json");
  }
  {
    EnvVar v("PSTLB_TEST_S", "");
    EXPECT_EQ(string_or("PSTLB_TEST_S", "dflt"), "dflt");
  }
}

TEST(KnownVars, SortedAndCoversTheDocumentedKnobs) {
  const auto& vars = known_vars();
  EXPECT_TRUE(std::is_sorted(vars.begin(), vars.end()));
  EXPECT_EQ(vars.size(), 15u);
  for (const char* expected : {"PSTLB_COUNTERS", "PSTLB_STATS", "PSTLB_TRACE",
                               "PSTLB_TRACE_FILE", "PSTLB_WATCHDOG_MS"}) {
    EXPECT_NE(std::find(vars.begin(), vars.end(), expected), vars.end())
        << expected << " missing from known_vars()";
  }
}

TEST(KnownVars, MatchesReadmeTable) {
  // Every row of README.md's "Environment variables" table names a known
  // variable, and every known variable has a row.
  std::ifstream readme(std::string(PSTLB_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(readme.is_open()) << PSTLB_SOURCE_DIR << "/README.md";
  std::set<std::string> documented;
  bool in_section = false;
  std::string line;
  while (std::getline(readme, line)) {
    if (line.rfind("#", 0) == 0) {
      in_section = line.find("Environment variables") != std::string::npos;
      continue;
    }
    if (!in_section || line.rfind("| `", 0) != 0) { continue; }
    const std::size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    documented.insert(line.substr(3, end - 3));
  }
  const std::set<std::string> known(known_vars().begin(), known_vars().end());
  for (const std::string& name : documented) {
    EXPECT_EQ(known.count(name), 1u) << name << " is in README but not known_vars()";
  }
  for (const std::string& name : known) {
    EXPECT_EQ(documented.count(name), 1u) << name << " is in known_vars() but not README";
  }
  EXPECT_EQ(documented.size(), known.size());
}

TEST(CheckNames, KnownVariablesPass) {
  const auto unknown = check_names({"PSTLB_TRACE", "PSTLB_COUNTERS"});
  EXPECT_TRUE(unknown.empty());
}

TEST(CheckNames, DeletedKnobsAreUnknown) {
  // Knobs that became constants or policy fields, the arena knobs the one
  // admission ledger replaced, the topology override that went with native
  // locality stealing, and the seven knobs that no run set (the live
  // advisor, CSV tables, srv_throughput's open loop, the stats budget,
  // tab4_simd's size, the ring capacity and the hard-exit opt-out) warn
  // like any other unknown name.
  const std::vector<std::string> deleted = {
      "PSTLB_SORT", "PSTLB_SCAN_CHUNK", "PSTLB_STEAL_LOCALITY",
      "PSTLB_NUMA_SCATTER", "PSTLB_COUNTER_SAMPLE_MS", "PSTLB_ARENA",
      "PSTLB_ARENA_CAP", "PSTLB_ARENA_MAX_PENDING", "PSTLB_ARENA_DEADLINE_MS",
      "PSTLB_TOPOLOGY", "PSTLB_ANALYZE", "PSTLB_CSV", "PSTLB_SRV_ARRIVAL",
      "PSTLB_STATS_BUDGET_NS", "PSTLB_TAB4_SIMD_LOG2", "PSTLB_TRACE_RING",
      "PSTLB_WATCHDOG_EXIT"};
  const auto unknown = check_names(deleted);
  ASSERT_EQ(unknown.size(), deleted.size());
  for (std::size_t i = 0; i < deleted.size(); ++i) {
    EXPECT_EQ(unknown[i].name, deleted[i]);
  }
}

TEST(CheckNames, NonPstlbNamesAreIgnored) {
  const auto unknown =
      check_names({"PATH", "HOME", "OMP_NUM_THREADS", "PSTL_NUM_THREADS"});
  EXPECT_TRUE(unknown.empty());
}

TEST(CheckNames, TypoGetsANearestMatchSuggestion) {
  const auto unknown = check_names({"PSTLB_TRCE"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].name, "PSTLB_TRCE");
  EXPECT_EQ(unknown[0].suggestion, "PSTLB_TRACE");
}

TEST(CheckNames, CaseSlipStillSuggests) {
  const auto unknown = check_names({"PSTLB_Counters"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].suggestion, "PSTLB_COUNTERS");
}

TEST(CheckNames, FarFromEverythingGetsNoSuggestion) {
  const auto unknown = check_names({"PSTLB_ZZZZZZZZZZ"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_TRUE(unknown[0].suggestion.empty());
}

TEST(CheckNames, MixedListFlagsOnlyTheUnknowns) {
  const auto unknown = check_names(
      {"PSTLB_TRACE", "PSTLB_COUNTER", "HOME", "PSTLB_SIMD", "PSTLB_TRACE_FIL"});
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0].name, "PSTLB_COUNTER");
  EXPECT_EQ(unknown[0].suggestion, "PSTLB_COUNTERS");
  EXPECT_EQ(unknown[1].name, "PSTLB_TRACE_FIL");
  EXPECT_EQ(unknown[1].suggestion, "PSTLB_TRACE_FILE");
}

}  // namespace
}  // namespace pstlb::env

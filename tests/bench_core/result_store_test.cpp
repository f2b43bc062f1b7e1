// Canonical bench-result schema + emitter (bench_core/result_store).
#include "bench_core/result_store.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace pstlb::bench::results {
namespace {

sample_result make_result(std::string suite, std::string backend,
                          std::vector<double> samples) {
  sample_result r;
  r.suite = std::move(suite);
  r.kernel = "sort";
  r.backend = std::move(backend);
  r.machine = "Mach C";
  r.from = provenance::sim;
  r.size = 1 << 20;
  r.threads = 8;
  r.samples = std::move(samples);
  r.finalize();
  return r;
}

class ResultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("PSTLB_BENCH_JSON");
    result_store::instance().reset();
  }
  void TearDown() override {
    ::unsetenv("PSTLB_BENCH_JSON");
    result_store::instance().reset();
  }
};

TEST_F(ResultStoreTest, JsonRoundTripPreservesEverything) {
  run_document doc;
  doc.envelope = current_envelope("roundtrip");
  doc.envelope.knobs.emplace_back("PSTLB_WATCHDOG_MS", "500");
  sample_result r = make_result("suite \"quoted\"\n", "GCC-TBB",
                                {0.25, 0.125, 1.0 / 3.0});
  r.from = provenance::native;
  r.unit = "ns/call";
  r.lower_is_better = false;
  r.k_it = 1000;
  doc.results.push_back(r);
  doc.results.push_back(make_result("plain", "GCC-GNU", {2.0}));

  std::ostringstream os;
  write_json(doc, os);
  const run_document back = parse_json(os.str());

  EXPECT_EQ(back.envelope.suite, doc.envelope.suite);
  EXPECT_EQ(back.envelope.git_sha, doc.envelope.git_sha);
  EXPECT_EQ(back.envelope.hostname, doc.envelope.hostname);
  EXPECT_EQ(back.envelope.topology, doc.envelope.topology);
  EXPECT_EQ(back.envelope.knobs, doc.envelope.knobs);
  ASSERT_EQ(back.results.size(), 2u);
  const sample_result& b = back.results[0];
  EXPECT_EQ(b.suite, r.suite);
  EXPECT_EQ(b.backend, "GCC-TBB");
  EXPECT_EQ(b.from, provenance::native);
  EXPECT_EQ(b.unit, "ns/call");
  EXPECT_FALSE(b.lower_is_better);
  EXPECT_EQ(b.k_it, 1000);
  ASSERT_EQ(b.samples.size(), 3u);
  // %.17g must round-trip doubles exactly, including 1/3.
  EXPECT_EQ(b.samples[2], 1.0 / 3.0);
  EXPECT_EQ(b.median, r.median);
  EXPECT_EQ(b.ci_lo, r.ci_lo);
  EXPECT_EQ(b.ci_hi, r.ci_hi);
}

TEST_F(ResultStoreTest, ParseRejectsBadDocuments) {
  EXPECT_THROW(parse_json("not json"), std::runtime_error);
  EXPECT_THROW(parse_json("{}"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"schema_version\":999,\"envelope\":{\"suite\":\"x\"},"
                          "\"results\":[]}"),
               std::runtime_error);
  EXPECT_THROW(parse_json("{\"schema_version\":1,\"results\":[]}"),
               std::runtime_error);
}

TEST_F(ResultStoreTest, EnvelopeCapturesKnobsAndTopology) {
  const char* const saved = std::getenv("PSTLB_SIMD");
  const std::string restore = saved != nullptr ? saved : "";
  ::setenv("PSTLB_SIMD", "scalar", 1);
  ::setenv("PSTLB_BENCH_JSON", "/tmp/somewhere", 1);
  const run_envelope e = current_envelope("env");
  if (saved != nullptr) {
    ::setenv("PSTLB_SIMD", restore.c_str(), 1);
  } else {
    ::unsetenv("PSTLB_SIMD");
  }

  EXPECT_EQ(e.suite, "env");
  EXPECT_FALSE(e.git_sha.empty());
  EXPECT_FALSE(e.hostname.empty());
  EXPECT_NE(e.topology.find("nodes="), std::string::npos);
  EXPECT_NE(e.topology.find("cpus="), std::string::npos);
  bool saw_simd = false;
  for (const auto& [k, v] : e.knobs) {
    // Output-path-only knobs never enter comparability.
    EXPECT_NE(k, "PSTLB_BENCH_JSON");
    if (k == "PSTLB_SIMD") {
      saw_simd = true;
      EXPECT_EQ(v, "scalar");
    }
  }
  EXPECT_TRUE(saw_simd);
}

TEST_F(ResultStoreTest, RecordMergesByKeyAndCapsSamples) {
  auto& store = result_store::instance();
  store.record(make_result("merge", "GCC-TBB", {1.0, 2.0}));
  store.record(make_result("merge", "GCC-TBB", {3.0}));
  store.record(make_result("merge", "GCC-GNU", {4.0}));
  EXPECT_EQ(store.size(), 2u);
  const run_document doc = store.document();
  ASSERT_EQ(doc.results.size(), 2u);
  EXPECT_EQ(doc.results[0].samples.size(), 3u);
  EXPECT_EQ(doc.results[0].median, 2.0);

  store.record(make_result("merge", "GCC-TBB",
                           std::vector<double>(200, 5.0)));
  EXPECT_EQ(store.document().results[0].samples.size(),
            result_store::max_samples_per_result);
}

TEST_F(ResultStoreTest, RecordFillsEmptySuiteFromStore) {
  auto& store = result_store::instance();
  store.set_suite("from_argv0");
  sample_result r = make_result("", "steal", {1.0});
  store.record(std::move(r));
  EXPECT_EQ(store.document().results[0].suite, "from_argv0");
  EXPECT_EQ(store.document().envelope.suite, "from_argv0");
}

TEST_F(ResultStoreTest, SetSuiteFromArgv0StripsDirectories) {
  auto& store = result_store::instance();
  store.set_suite_from_argv0("/path/to/build/bench/fig7_sort");
  EXPECT_EQ(store.document().envelope.suite, "fig7_sort");
}

TEST_F(ResultStoreTest, FlushWritesDirectoryAndFileTargets) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "pstlb_result_store_test_dir";
  fs::create_directories(dir);

  auto& store = result_store::instance();
  EXPECT_FALSE(result_store::export_enabled());
  EXPECT_FALSE(store.flush_to_env());  // no target, no results

  store.set_suite("flush/suite name");
  store.record(make_result("flush", "steal", {1.0}));

  ::setenv("PSTLB_BENCH_JSON", dir.c_str(), 1);
  EXPECT_TRUE(result_store::export_enabled());
  EXPECT_TRUE(store.flush_to_env());
  // Directory target: BENCH_<suite>.json with '/' and ' ' sanitized.
  const fs::path expect_file = dir / "BENCH_flush_suite_name.json";
  ASSERT_TRUE(fs::exists(expect_file));
  const run_document back = load_file(expect_file.string());
  EXPECT_EQ(back.envelope.suite, "flush/suite name");
  ASSERT_EQ(back.results.size(), 1u);
  EXPECT_EQ(back.results[0].median, 1.0);

  const fs::path file = dir / "explicit.json";
  ::setenv("PSTLB_BENCH_JSON", file.c_str(), 1);
  EXPECT_TRUE(store.flush_to_env());
  EXPECT_TRUE(fs::exists(file));

  fs::remove_all(dir);
}

TEST_F(ResultStoreTest, StatsRegistryStyleEnvelopeAppend) {
  std::string out;
  run_envelope e;
  e.suite = "stats";
  e.git_sha = "abc";
  e.hostname = "h";
  e.topology = "nodes=1";
  e.provider = "sim";
  e.unix_time = 7;
  e.knobs.emplace_back("PSTLB_STATS", "1");
  append_envelope_json(e, out);
  EXPECT_EQ(out,
            "{\"suite\":\"stats\",\"git_sha\":\"abc\",\"hostname\":\"h\","
            "\"topology\":\"nodes=1\",\"provider\":\"sim\",\"unix_time\":7,"
            "\"knobs\":{\"PSTLB_STATS\":\"1\"}}");
}

}  // namespace
}  // namespace pstlb::bench::results

#include "bench_core/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace pstlb::bench {
namespace {

TEST(Report, TablePrintsHeaderAndRows) {
  table t("Demo table");
  t.set_header({"backend", "speedup"});
  t.add_row({"GCC-TBB", "10.0"});
  t.add_row({"GCC-HPX", "7.3"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Demo table"), std::string::npos);
  EXPECT_NE(out.find("backend"), std::string::npos);
  EXPECT_NE(out.find("GCC-HPX"), std::string::npos);
  EXPECT_NE(out.find("7.3"), std::string::npos);
}

TEST(Report, FmtRoundsToPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(10.0, 1), "10.0");
  EXPECT_EQ(fmt(0.5, 0), "0");  // bankers-independent: printf rounding
}

TEST(Report, TripleUsesPaperNotation) {
  EXPECT_EQ(triple(8.9, 5.8, 4.7), "8.9 | 5.8 | 4.7");
  EXPECT_EQ(triple(8.9, -1, 4.7), "8.9 | N/A | 4.7");
}

TEST(Report, EngFormatsLikeThePaper) {
  EXPECT_EQ(eng(1.72e12), "1.72T");
  EXPECT_EQ(eng(107e9), "107G");
  EXPECT_EQ(eng(26e9), "26G");
  EXPECT_EQ(eng(950.0), "950");
}

TEST(Report, Pow2Labels) {
  EXPECT_EQ(pow2_label(1024), "2^10");
  EXPECT_EQ(pow2_label(1073741824.0), "2^30");
  EXPECT_EQ(pow2_label(1000), "1000");
}

}  // namespace
}  // namespace pstlb::bench

// Unit tests of the wp_util foundation library.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "testkit/rng.hpp"
#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace wp {
namespace {

using testkit::range;

// --------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(9);
  EXPECT_THROW(rng.below(0), ContractViolation);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = range(rng, -2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, SplitDecorrelates) {
  Rng a(23);
  Rng b = testkit::split(a);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ------------------------------------------------------------------- Stats

TEST(Stats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, EmptyThrows) {
  RunningStats s;
  EXPECT_THROW(s.mean(), ContractViolation);
  EXPECT_THROW(s.min(), ContractViolation);
  EXPECT_THROW(s.max(), ContractViolation);
}

TEST(Stats, Percentile) {
  std::vector<double> data{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(data, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(data, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(data, 100), 5.0);
}

// The ensemble aggregator leans on the percentile edge cases: empty and
// out-of-range inputs must throw loudly, a single sample is every
// percentile of itself, and nearest-rank handles ties/p95 predictably.
TEST(Stats, PercentileContract) {
  EXPECT_THROW(percentile({}, 50), ContractViolation);
  EXPECT_THROW(percentile({1.0, 2.0}, -0.5), ContractViolation);
  EXPECT_THROW(percentile({1.0, 2.0}, 100.5), ContractViolation);

  for (double p : {0.0, 37.0, 50.0, 95.0, 100.0})
    EXPECT_DOUBLE_EQ(percentile({4.25}, p), 4.25);

  const std::vector<double> ties{2, 2, 2, 2, 9};
  EXPECT_DOUBLE_EQ(percentile(ties, 50), 2.0);
  EXPECT_DOUBLE_EQ(percentile(ties, 79), 2.0);   // rank 4 of 5 is still a 2
  EXPECT_DOUBLE_EQ(percentile(ties, 81), 9.0);   // rank 5 crosses the tie
  EXPECT_DOUBLE_EQ(percentile(ties, 100), 9.0);

  // Nearest-rank p95 on 20 samples picks the 19th order statistic.
  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) twenty.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(percentile(twenty, 95), 19.0);
  EXPECT_DOUBLE_EQ(percentile(twenty, 95.1), 20.0);
}

TEST(Stats, SingleSampleSummary) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

// ----------------------------------------------------------------- Strings

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",,", ','), (std::vector<std::string>{"", "", ""}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Strings, SplitWs) {
  EXPECT_EQ(split_ws("  a\t b \n c "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, Misc) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with("wirepipe", "wire"));
  EXPECT_FALSE(starts_with("wire", "wirepipe"));
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(format("x=%d y=%s", 3, "q"), "x=3 y=q");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_EQ(parse_int("0x10"), 16);
  EXPECT_THROW(parse_int("12abc"), ContractViolation);
  EXPECT_THROW(parse_int(""), ContractViolation);
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5"), 2.5);
  EXPECT_THROW(parse_double("nope"), ContractViolation);
}

// ------------------------------------------------------------------- Table

TEST(Table, RendersAlignedColumns) {
  TextTable t({"Config", "Cycles"});
  t.add_row({"ideal", "1559"});
  t.add_section("Matrix Multiply");
  t.add_row({"all-1", "4703"});
  const std::string s = t.str();
  EXPECT_NE(s.find("Config"), std::string::npos);
  EXPECT_NE(s.find("Matrix Multiply"), std::string::npos);
  EXPECT_NE(s.find("1559"), std::string::npos);
  EXPECT_NE(s.find("4703"), std::string::npos);
}

TEST(Table, RowWidthChecked) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, PercentFormatting) {
  EXPECT_EQ(fmt_percent(0.13), "+13%");
  EXPECT_EQ(fmt_percent(0.0), "0%");
  EXPECT_EQ(fmt_percent(-0.044, 1), "-4.4%");
  EXPECT_EQ(fmt_fixed(0.6666, 3), "0.667");
}

// --------------------------------------------------------------------- CSV

TEST(Csv, PlainRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(Csv, QuotesSpecials) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"x,y", "he said \"hi\"", "line\nbreak"});
  EXPECT_EQ(os.str(), "\"x,y\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
}


// ------------------------------------------------------------------ Assert

TEST(Assert, CarriesLocationAndKind) {
  try {
    WP_REQUIRE(1 == 2, "impossible");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(std::string(e.what()).rfind("precondition failed: (1 == 2)", 0),
              0u);
    EXPECT_NE(std::string(e.what()).find("impossible"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace wp

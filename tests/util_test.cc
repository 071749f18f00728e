#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/csv.h"
#include "util/json.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/string_util.h"

namespace iq {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kResourceExhausted, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

Result<int> Doubled(int x) {
  IQ_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = Doubled(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(1, 5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 1);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  PercentileTracker p;
  for (int i = 1; i <= 100; ++i) p.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(p.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.Percentile(100), 100.0);
  EXPECT_NEAR(p.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(p.Percentile(95), 95.05, 0.2);
}

TEST(StringTest, SplitKeepsEmptyFields) {
  auto parts = StrSplit("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringTest, TrimAndLower) {
  EXPECT_EQ(StrTrim("  Hello \t\n"), "Hello");
  EXPECT_EQ(StrLower("AbC1"), "abc1");
}

TEST(StringTest, JoinAndAffixes) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_TRUE(StrStartsWith("foobar", "foo"));
  EXPECT_TRUE(StrEndsWith("foobar", "bar"));
  EXPECT_FALSE(StrStartsWith("fo", "foo"));
}

TEST(StringTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble(" 3.5 "), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e-3"), 1e-3);
  EXPECT_FALSE(ParseDouble("3.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringTest, ParseIntStrict) {
  EXPECT_EQ(*ParseInt("-42"), -42);
  EXPECT_FALSE(ParseInt("4.2").ok());
  EXPECT_FALSE(ParseInt("x").ok());
}

TEST(StringTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(CsvTest, ParseAndRoundTrip) {
  auto table = ParseCsv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_columns(), 3);
  EXPECT_EQ(table->num_rows(), 2);
  EXPECT_EQ(table->ColumnIndex("b"), 1);
  EXPECT_EQ(table->ColumnIndex("zz"), -1);
  auto again = ParseCsv(WriteCsv(*table));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows, table->rows);
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());
}

TEST(CsvTest, RejectsEmpty) { EXPECT_FALSE(ParseCsv("").ok()); }

TEST(CsvTest, HandlesCrLf) {
  auto table = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][1], "2");
}

TEST(CsvTest, FileRoundTrip) {
  CsvTable t;
  t.header = {"x", "y"};
  t.rows = {{"1", "2"}, {"3", "4"}};
  std::string path = testing::TempDir() + "/iq_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows, t.rows);
  EXPECT_FALSE(ReadCsvFile(path + ".missing").ok());
}

TEST(JsonTest, EscapeWritesOneLineForEveryControlCharacter) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("\n\r\t\x01\x1f"), "\\n\\r\\t\\u0001\\u001f");
  std::string all;
  for (int c = 1; c < 128; ++c) all += static_cast<char>(c);
  EXPECT_EQ(JsonEscape(all).find('\n'), std::string::npos);
}

TEST(JsonTest, FindValueUnescapesWhatEscapeWrote) {
  std::string all;
  for (int c = 1; c < 128; ++c) all += static_cast<char>(c);
  for (const std::string& value :
       {std::string("win \"a\\b\"\tx\n"), std::string("\\"), all}) {
    const std::string line = "{\"first\": \"" + JsonEscape(value) +
                             "\", \"second\": \"" + JsonEscape(value) +
                             "\"}";
    std::string out;
    ASSERT_TRUE(JsonFindValue(line, "first", &out)) << line;
    EXPECT_EQ(out, value);
    ASSERT_TRUE(JsonFindValue(line, "second", &out)) << line;
    EXPECT_EQ(out, value);
  }
}

TEST(JsonTest, FindValueIsTolerant) {
  std::string out;
  EXPECT_FALSE(JsonFindValue("{\"a\": 1}", "b", &out));
  EXPECT_FALSE(JsonFindValue("{\"a\": \"cut off", "a", &out));
  EXPECT_FALSE(JsonFindValue("{\"a\": \"cut \\", "a", &out));
  // A key only matches whole: "wait_nanos" is not "max_wait_nanos".
  EXPECT_EQ(JsonFindU64("{\"max_wait_nanos\": 9, \"wait_nanos\": 4}",
                        "wait_nanos"),
            4u);
  ASSERT_TRUE(JsonFindValue("{\"on\": true}", "on", &out));
  EXPECT_EQ(out, "true");
  EXPECT_EQ(JsonFindInt("{\"n\": -12}", "n"), -12);
  EXPECT_EQ(JsonFindInt("{\"n\": x}", "n", 7), 7);
  EXPECT_EQ(JsonFindU64("{\"n\": -12}", "n", 3), 3u);
  EXPECT_DOUBLE_EQ(JsonFindDouble("{\"f\": 0.25}", "f"), 0.25);
  EXPECT_DOUBLE_EQ(JsonFindDouble("{}", "f", 1.5), 1.5);
}

}  // namespace
}  // namespace iq

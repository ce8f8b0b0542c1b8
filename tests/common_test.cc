#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "common/bitset.h"
#include "common/durable.h"
#include "common/file_util.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"

namespace bati {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, NormalMeanAndStddevRoughlyCorrect) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(13);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.WeightedIndex(w), 1u);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(19);
  std::vector<double> w = {0.0, 0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.WeightedIndex(w));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(23);
  std::vector<double> w = {1.0, 3.0};
  int count1 = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.WeightedIndex(w) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / trials, 0.75, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// ---------- DynamicBitset ----------

TEST(DynamicBitset, SetTestResetCount) {
  DynamicBitset b(100);
  EXPECT_TRUE(b.empty());
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_FALSE(b.test(1));
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(DynamicBitset, SubsetSemantics) {
  DynamicBitset small = DynamicBitset::FromIndices(128, {3, 70});
  DynamicBitset big = DynamicBitset::FromIndices(128, {3, 70, 127});
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));
  EXPECT_TRUE(DynamicBitset(128).IsSubsetOf(small));
}

TEST(DynamicBitset, SetAlgebra) {
  DynamicBitset a = DynamicBitset::FromIndices(70, {1, 2, 65});
  DynamicBitset b = DynamicBitset::FromIndices(70, {2, 3});
  EXPECT_EQ((a | b).ToIndices(), (std::vector<size_t>{1, 2, 3, 65}));
}

TEST(DynamicBitset, WithWithoutDoNotMutate) {
  DynamicBitset a = DynamicBitset::FromIndices(10, {1});
  DynamicBitset with = a.With(5);
  EXPECT_FALSE(a.test(5));
  EXPECT_TRUE(with.test(5));
  DynamicBitset without = with.Without(1);
  EXPECT_TRUE(with.test(1));
  EXPECT_FALSE(without.test(1));
}

TEST(DynamicBitset, EqualityAndHash) {
  DynamicBitset a = DynamicBitset::FromIndices(90, {10, 80});
  DynamicBitset b = DynamicBitset::FromIndices(90, {10, 80});
  DynamicBitset c = DynamicBitset::FromIndices(90, {10, 81});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), c.Hash());  // not guaranteed, but true for FNV here
}

TEST(DynamicBitset, ToStringFormat) {
  EXPECT_EQ(DynamicBitset::FromIndices(10, {1, 4, 7}).ToString(), "{1,4,7}");
  EXPECT_EQ(DynamicBitset(10).ToString(), "{}");
}

// ---------- Status ----------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing table");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = Status::InvalidArgument("bad");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

// ---------- RunningStats ----------

TEST(RunningStats, MeanStddevMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  s.Add(3.5);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.stddev(), 0.0);
}

// ---------- strings ----------

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("Select", "SELECT"));
  EXPECT_FALSE(EqualsIgnoreCase("Selec", "SELECT"));
}

TEST(Strings, SplitAndTrim) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("   "), "");
}

// ---------- Json ----------

JsonField ReadOne(const std::string& line, Status* st) {
  std::vector<JsonField> fields;
  *st = ReadFlatObject(line, "test line", &fields);
  return st->ok() && fields.size() == 1 ? fields[0] : JsonField{};
}

TEST(Json, EscapeWritesControlBytesAsUnicode) {
  EXPECT_EQ(JsonEscape("a\"b\\c/\t\x01\x1f~"),
            "a\\\"b\\\\c/\\u0009\\u0001\\u001f~");
}

TEST(Json, EveryByteRoundTripsThroughWriterAndReader) {
  std::string all;
  for (int b = 1; b < 256; ++b) all.push_back(static_cast<char>(b));
  const std::string line = JsonObjectWriter().String("s", all).Finish();
  Status st;
  const JsonField f = ReadOne(line, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(f.kind, JsonKind::kString);
  EXPECT_EQ(f.str, all);
}

TEST(Json, ReaderAcceptsExactlyTheWriterEscapes) {
  Status st;
  const JsonField f = ReadOne(R"({"s":"q\"b\\s\/t\u0009"})", &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(f.str, "q\"b\\s/t\t");
  for (const char* bad : {R"({"s":"\n"})", R"({"s":"\u0041"})",
                          R"({"s":"\u0020"})", R"({"s":"\u00"})",
                          "{\"s\":\"raw\ttab\"}", R"({"s":"open)"}) {
    ReadOne(bad, &st);
    EXPECT_FALSE(st.ok()) << bad;
  }
}

TEST(Json, FlatObjectRecordsKindsValuesAndPositions) {
  std::vector<JsonField> fields;
  const std::string line = R"( {"a":"x", "b":-2.5e1,"c":true} )";
  ASSERT_TRUE(ReadFlatObject(line, "test line", &fields).ok());
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0].key, "a");
  EXPECT_EQ(fields[0].kind, JsonKind::kString);
  EXPECT_EQ(fields[0].str, "x");
  EXPECT_EQ(fields[0].pos, line.find("\"x\""));
  EXPECT_EQ(fields[1].kind, JsonKind::kNumber);
  EXPECT_EQ(fields[1].num, -25.0);
  EXPECT_EQ(fields[1].pos, line.find("-2.5e1"));
  EXPECT_EQ(fields[2].kind, JsonKind::kBool);
  EXPECT_TRUE(fields[2].boolean);
  const struct {
    const char* line;
    const char* fragment;
  } kBad[] = {
      {"[]", "test line must be a JSON object"},
      {R"({"a":1} x)", "trailing characters"},
      {R"({"a":{}})", "nested"},
      {R"({"a":1 "b":2})", "expected ',' or '}' at position 7"},
      {R"({"a" 1})", "expected ':' after \"a\""},
      {R"({"a":})", "malformed number at position 5"},
      {R"({"a":tru})", "expected true or false at position 5"},
      {R"({"a":)", "missing value"},
  };
  for (const auto& c : kBad) {
    const Status st = ReadFlatObject(c.line, "test line", &fields);
    EXPECT_FALSE(st.ok()) << c.line;
    EXPECT_NE(st.message().find(c.fragment), std::string::npos)
        << c.line << " -> " << st.message();
  }
}

TEST(Json, NumbersFollowTheJsonGrammar) {
  Status st;
  for (const char* good : {"0", "-0", "7", "1.5", "-2e3", "1E+2", "3.25e-1"}) {
    ReadOne(std::string("{\"n\":") + good + "}", &st);
    EXPECT_TRUE(st.ok()) << good << " -> " << st.ToString();
  }
  for (const char* bad : {"+1", ".5", "1.", "01", "0x10", "inf", "nan",
                          "-", "1e", "1e999", "--1"}) {
    ReadOne(std::string("{\"n\":") + bad + "}", &st);
    EXPECT_FALSE(st.ok()) << bad;
  }
}

TEST(Json, WantIntChecksNumberThenIntegerThenRange) {
  Status st;
  int64_t v = 0;
  EXPECT_NE(WantInt(ReadOne(R"({"n":"1"})", &st), 0, 9, &v).message().find(
                "\"n\" must be a number"),
            std::string::npos);
  EXPECT_NE(WantInt(ReadOne(R"({"n":-1.5})", &st), 0, 9, &v).message().find(
                "must be an integer"),
            std::string::npos);
  EXPECT_NE(WantInt(ReadOne(R"({"n":10})", &st), 0, 9, &v).message().find(
                "out of range"),
            std::string::npos);
  EXPECT_NE(WantInt(ReadOne(R"({"n":4294967296})", &st), 0, INT_MAX, &v)
                .message()
                .find("out of range"),
            std::string::npos);
  EXPECT_NE(WantInt(ReadOne(R"({"n":9223372036854775808})", &st), 0,
                    INT64_MAX, &v)
                .message()
                .find("out of range"),
            std::string::npos);
  ASSERT_TRUE(WantInt(ReadOne(R"({"n":9})", &st), 0, 9, &v).ok());
  EXPECT_EQ(v, 9);
  double d = 0.0;
  EXPECT_FALSE(WantNumber(ReadOne(R"({"n":2})", &st), 0.0, 1.0, &d).ok());
  bool b = false;
  EXPECT_FALSE(WantBool(ReadOne(R"({"n":1})", &st), &b).ok());
  std::string s;
  EXPECT_FALSE(WantString(ReadOne(R"({"n":true})", &st), &s).ok());
}

TEST(Json, SkipValueWalksNestedDocumentsAndBoundsDepth) {
  JsonCursor c(R"({"a":[1,{"b":[true,"x"]},[]],"c":{}} )");
  EXPECT_TRUE(c.SkipValue().ok());
  EXPECT_TRUE(c.AtEnd());
  const std::string deep = std::string(200, '[') + std::string(200, ']');
  JsonCursor d(deep);
  EXPECT_FALSE(d.SkipValue().ok());
}

// ---------- Durable ----------

TEST(Durable, SealOpenRoundTripsTheBody) {
  const std::string body = "line one\nline two\n";
  const std::string sealed = SealDurable("bati-test v4", body);
  EXPECT_EQ(sealed.substr(0, sealed.find('\n')), "bati-test v4");
  StatusOr<std::string> opened = OpenDurable(sealed, "bati-test v4");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(*opened, body);
  EXPECT_TRUE(OpenDurable(SealDurable("bati-test v4", ""), "bati-test v4")
                  .ok());
}

TEST(Durable, RejectsOtherVersionsAndDamage) {
  const std::string sealed = SealDurable("bati-test v4", "payload\n");
  const StatusOr<std::string> old = OpenDurable(
      SealDurable("bati-test v3", "payload\n"), "bati-test v4");
  ASSERT_FALSE(old.ok());
  EXPECT_NE(old.status().message().find("unsupported version v3"),
            std::string::npos)
      << old.status().ToString();
  EXPECT_FALSE(OpenDurable(sealed, "other-name v4").ok());
  EXPECT_FALSE(OpenDurable(sealed + "x", "bati-test v4").ok());
  EXPECT_FALSE(OpenDurable("", "bati-test v4").ok());
  std::string upper = sealed;
  for (size_t i = upper.find("checksum ") + 9; upper[i] != ' '; ++i) {
    upper[i] = static_cast<char>(std::toupper(upper[i]));
  }
  ASSERT_NE(upper, sealed);  // the CRC of "payload\n" has a hex letter
  EXPECT_FALSE(OpenDurable(upper, "bati-test v4").ok());
}

TEST(Durable, TextRecordHelpersAreStrict) {
  int64_t i = 0;
  uint64_t u = 0;
  EXPECT_TRUE(ParseI64("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseI64("", &i));
  EXPECT_FALSE(ParseI64("12x", &i));
  EXPECT_FALSE(ParseI64("99999999999999999999", &i));
  EXPECT_TRUE(ParseU64("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(ParseU64("-1", &u));
  EXPECT_FALSE(ParseU64("18446744073709551616", &u));
  EXPECT_EQ(SplitTokens("  a\tb  c \n"),
            (std::vector<std::string>{"a", "b", "c"}));
  std::string hex;
  AppendHexDouble(&hex, 0.1 + 0.2);
  double d = 0.0;
  ASSERT_TRUE(ParseHexDouble(hex, &d));
  EXPECT_EQ(d, 0.1 + 0.2);
}

TEST(FileUtil, ReadFileToStringRoundTripsAndReportsMissingFiles) {
  const std::string path = testing::TempDir() + "/bati_common_read_test";
  const std::string contents("bytes\0with a nul\n", 17);
  ASSERT_TRUE(AtomicWriteFile(path, contents).ok());
  StatusOr<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, contents);
  std::remove(path.c_str());
  EXPECT_EQ(ReadFileToString(path).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace bati

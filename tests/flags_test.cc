// Tests for the shared strict CLI flag table (common/flags.h) that
// bati_tune, bati_export, and bati_batch all parse with: the same inputs
// must validate identically across the three tools, so the table itself is
// pinned down here once.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"

namespace bati {
namespace {

/// Builds a mutable argv from string literals, with the program name
/// prepended, the way main() receives it.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "test-tool");
    for (std::string& arg : storage_) ptrs_.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

struct Parsed {
  std::string name = "default";
  bool flag = false;
  int64_t count = 7;
  uint64_t seed = 1;
  double rate = 0.0;
  double factor = 1.0;
  bool metrics = false;
  std::string metrics_file;
};

FlagParser MakeParser(Parsed* out) {
  FlagParser parser;
  parser.AddString("name", &out->name);
  parser.AddBool("flag", &out->flag);
  parser.AddInt64("count", &out->count, /*min=*/1);
  parser.AddUint64("seed", &out->seed);
  parser.AddRate("rate", &out->rate);
  parser.AddDouble("factor", &out->factor, /*min=*/1.0);
  parser.AddOptionalValue("metrics", &out->metrics, &out->metrics_file);
  return parser;
}

TEST(FlagParserTest, ParsesBothValueSyntaxes) {
  Parsed out;
  FlagParser parser = MakeParser(&out);
  Argv argv({"--name", "alpha", "--count=42", "--flag", "--rate", "0.25",
             "--seed=9", "--factor", "2.5"});
  EXPECT_TRUE(parser.Parse(argv.argc(), argv.argv()));
  EXPECT_EQ(out.name, "alpha");
  EXPECT_EQ(out.count, 42);
  EXPECT_TRUE(out.flag);
  EXPECT_DOUBLE_EQ(out.rate, 0.25);
  EXPECT_EQ(out.seed, 9u);
  EXPECT_DOUBLE_EQ(out.factor, 2.5);
}

TEST(FlagParserTest, DefaultsSurviveWhenFlagsAbsent) {
  Parsed out;
  FlagParser parser = MakeParser(&out);
  Argv argv({});
  EXPECT_TRUE(parser.Parse(argv.argc(), argv.argv()));
  EXPECT_EQ(out.name, "default");
  EXPECT_EQ(out.count, 7);
  EXPECT_FALSE(out.flag);
}

TEST(FlagParserTest, RejectsUnknownFlag) {
  Parsed out;
  FlagParser parser = MakeParser(&out);
  Argv argv({"--bogus"});
  EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv()));
}

TEST(FlagParserTest, RejectsMissingValue) {
  Parsed out;
  FlagParser parser = MakeParser(&out);
  Argv argv({"--name"});
  EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv()));
}

TEST(FlagParserTest, RejectsMalformedNumbers) {
  // Strict parsing: the whole token must parse, no atoll-style truncation.
  for (const char* bad : {"abc", "12x", "", "1.5"}) {
    Parsed out;
    FlagParser parser = MakeParser(&out);
    Argv argv({"--count", bad});
    EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv())) << bad;
  }
}

TEST(FlagParserTest, EnforcesBounds) {
  {
    Parsed out;
    FlagParser parser = MakeParser(&out);
    Argv argv({"--count", "0"});  // min is 1
    EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv()));
  }
  {
    Parsed out;
    FlagParser parser = MakeParser(&out);
    Argv argv({"--seed", "-3"});  // unsigned
    EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv()));
  }
  {
    Parsed out;
    FlagParser parser = MakeParser(&out);
    Argv argv({"--rate", "1.5"});  // rates live in [0, 1]
    EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv()));
  }
  {
    Parsed out;
    FlagParser parser = MakeParser(&out);
    Argv argv({"--factor", "0.5"});  // min is 1.0
    EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv()));
  }
}

TEST(FlagParserTest, RejectsNonFiniteDoubles) {
  // NaN compares false against every bound, so it must be refused at parse
  // time; infinities are never a meaningful flag value either.
  for (const char* flag : {"--factor", "--rate"}) {
    for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "infinity"}) {
      Parsed out;
      FlagParser parser = MakeParser(&out);
      Argv argv({flag, bad});
      EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv()))
          << flag << " " << bad;
    }
  }
  double value = 0.0;
  EXPECT_FALSE(ParseDoubleFlag("--x", "nan", &value));
  EXPECT_FALSE(ParseDoubleFlag("--x", "inf", &value));
  EXPECT_TRUE(ParseDoubleFlag("--x", "1e300", &value));
  EXPECT_EQ(value, 1e300);
}

TEST(FlagParserTest, EqualsFormWorksForEveryValuedKind) {
  Parsed out;
  FlagParser parser = MakeParser(&out);
  Argv argv({"--name=beta", "--count=3", "--seed=11", "--rate=0.5",
             "--factor=4.5"});
  EXPECT_TRUE(parser.Parse(argv.argc(), argv.argv()));
  EXPECT_EQ(out.name, "beta");
  EXPECT_EQ(out.count, 3);
  EXPECT_EQ(out.seed, 11u);
  EXPECT_DOUBLE_EQ(out.rate, 0.5);
  EXPECT_DOUBLE_EQ(out.factor, 4.5);
}

TEST(FlagParserTest, EqualsFormStillValidatesStrictly) {
  for (const char* bad :
       {"--count=abc", "--count=0", "--seed=-3", "--rate=1.5"}) {
    Parsed out;
    FlagParser parser = MakeParser(&out);
    Argv argv({bad});
    EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv())) << bad;
  }
}

TEST(FlagParserTest, LastOccurrenceWinsAcrossBothSyntaxes) {
  // Repeating a flag is not an error; the final occurrence decides, no
  // matter which syntax each occurrence used. This is what lets a wrapper
  // script append overrides to a base command line.
  Parsed out;
  FlagParser parser = MakeParser(&out);
  Argv argv({"--name", "first", "--name=second", "--count=2", "--count",
             "9", "--rate=0.75", "--rate", "0.25"});
  EXPECT_TRUE(parser.Parse(argv.argc(), argv.argv()));
  EXPECT_EQ(out.name, "second");
  EXPECT_EQ(out.count, 9);
  EXPECT_DOUBLE_EQ(out.rate, 0.25);
}

TEST(FlagParserTest, LastOccurrenceStillRejectsAnyMalformedRepeat) {
  // Every occurrence is validated even though only the last one lands.
  Parsed out;
  FlagParser parser = MakeParser(&out);
  Argv argv({"--count=abc", "--count=9"});
  EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv()));
}

TEST(FlagParserTest, BoolTakesNoValue) {
  Parsed out;
  FlagParser parser = MakeParser(&out);
  Argv argv({"--flag=true"});
  EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv()));
}

TEST(FlagParserTest, OptionalValueForms) {
  {
    Parsed out;
    FlagParser parser = MakeParser(&out);
    Argv argv({"--metrics"});
    EXPECT_TRUE(parser.Parse(argv.argc(), argv.argv()));
    EXPECT_TRUE(out.metrics);
    EXPECT_TRUE(out.metrics_file.empty());
  }
  {
    Parsed out;
    FlagParser parser = MakeParser(&out);
    Argv argv({"--metrics=/tmp/m.json"});
    EXPECT_TRUE(parser.Parse(argv.argc(), argv.argv()));
    EXPECT_TRUE(out.metrics);
    EXPECT_EQ(out.metrics_file, "/tmp/m.json");
  }
  {
    Parsed out;
    FlagParser parser = MakeParser(&out);
    Argv argv({"--metrics="});  // empty file name is an error
    EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv()));
  }
}

TEST(FlagParserTest, HelpReturnsFalseWithHelpSet) {
  for (const char* token : {"--help", "-h"}) {
    Parsed out;
    FlagParser parser = MakeParser(&out);
    Argv argv({token});
    bool help = false;
    EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv(), &help));
    EXPECT_TRUE(help) << token;
  }
  // A parse error is distinguishable from help.
  Parsed out;
  FlagParser parser = MakeParser(&out);
  Argv argv({"--bogus"});
  bool help = true;
  EXPECT_FALSE(parser.Parse(argv.argc(), argv.argv(), &help));
  EXPECT_FALSE(help);
}

TEST(FlagParserTest, StrictHelpersParseWholeToken) {
  int64_t i = 0;
  EXPECT_TRUE(ParseInt64Flag("--x", "-12", &i));
  EXPECT_EQ(i, -12);
  EXPECT_FALSE(ParseInt64Flag("--x", "12 ", &i));
  EXPECT_FALSE(ParseInt64Flag("--x", "", &i));
  uint64_t u = 0;
  EXPECT_TRUE(ParseUint64Flag("--x", "12", &u));
  EXPECT_FALSE(ParseUint64Flag("--x", "-1", &u));
  double d = 0.0;
  EXPECT_TRUE(ParseDoubleFlag("--x", "2.5e-3", &d));
  EXPECT_DOUBLE_EQ(d, 2.5e-3);
  EXPECT_FALSE(ParseDoubleFlag("--x", "2.5q", &d));
  EXPECT_TRUE(ParseRateFlag("--x", "1.0", &d));
  EXPECT_FALSE(ParseRateFlag("--x", "-0.1", &d));
}

}  // namespace
}  // namespace bati

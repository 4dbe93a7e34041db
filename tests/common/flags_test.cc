#include "common/flags.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace gfair {
namespace {

ArgParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return ArgParser(static_cast<int>(args.size()), args.data());
}

TEST(ArgParserTest, SpaceSeparatedValues) {
  const auto args = Parse({"--name", "value", "--count", "7"});
  EXPECT_EQ(args.GetString("name"), "value");
  int64_t count = 0;
  EXPECT_TRUE(args.TryGetInt("count", &count));
  EXPECT_EQ(count, 7);
}

TEST(ArgParserTest, EqualsSeparatedValues) {
  const auto args = Parse({"--rate=2.5", "--label=x=y"});
  double rate = 0.0;
  EXPECT_TRUE(args.TryGetDouble("rate", &rate));
  EXPECT_DOUBLE_EQ(rate, 2.5);
  EXPECT_EQ(args.GetString("label"), "x=y");  // only first '=' splits
}

TEST(ArgParserTest, BooleanFlags) {
  const auto args = Parse({"--verbose", "--next-flag", "--explicit=true", "--off=0"});
  EXPECT_TRUE(args.GetBool("verbose"));
  EXPECT_TRUE(args.GetBool("next-flag"));
  EXPECT_TRUE(args.GetBool("explicit"));
  EXPECT_FALSE(args.GetBool("off"));
  EXPECT_FALSE(args.GetBool("absent"));
  EXPECT_TRUE(args.GetBool("absent", true));
}

TEST(ArgParserTest, FallbacksWhenAbsent) {
  const auto args = Parse({});
  EXPECT_EQ(args.GetString("x", "d"), "d");
  double real = 1.5;
  EXPECT_FALSE(args.TryGetDouble("y", &real));
  EXPECT_DOUBLE_EQ(real, 1.5);
  int64_t integer = -3;
  EXPECT_FALSE(args.TryGetInt("z", &integer));
  EXPECT_EQ(integer, -3);
  EXPECT_FALSE(args.Has("x"));
}

TEST(ArgParserTest, RepeatableFlags) {
  const auto args = Parse({"--user", "a", "--user", "b", "--user=c"});
  const auto all = args.GetAll("user");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], "a");
  EXPECT_EQ(all[2], "c");
}

TEST(ArgParserTest, PositionalArguments) {
  const auto args = Parse({"input.csv", "--flag", "v", "other.txt"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.csv");
  EXPECT_EQ(args.positional()[1], "other.txt");
}

TEST(ArgParserTest, TryGettersRejectGarbage) {
  const auto args = Parse({"--num", "12abc", "--ok", "34"});
  int64_t value = 0;
  EXPECT_FALSE(args.TryGetInt("num", &value));
  EXPECT_TRUE(args.TryGetInt("ok", &value));
  EXPECT_EQ(value, 34);
  double real = 0.0;
  EXPECT_FALSE(args.TryGetDouble("num", &real));
}

TEST(ArgParserTest, TryGetIntRejectsOutOfRange) {
  const auto args = Parse({"--big", "99999999999999999999999", "--small",
                           "-99999999999999999999999", "--max", "9223372036854775807"});
  int64_t value = 0;
  EXPECT_FALSE(args.TryGetInt("big", &value));
  EXPECT_FALSE(args.TryGetInt("small", &value));
  EXPECT_TRUE(args.TryGetInt("max", &value));
  EXPECT_EQ(value, INT64_MAX);
}

TEST(ArgParserTest, UnconsumedFlagDetection) {
  const auto args = Parse({"--used", "1", "--typo", "2"});
  EXPECT_TRUE(args.Has("used"));
  const auto unconsumed = args.UnconsumedFlags();
  ASSERT_EQ(unconsumed.size(), 1u);
  EXPECT_EQ(unconsumed[0], "typo");
}

TEST(SplitAndTrimTest, Basics) {
  const auto pieces = SplitAndTrim(" a , b,c ,", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
  EXPECT_EQ(pieces[3], "");
}

TEST(SplitAndTrimTest, NoDelimiter) {
  const auto pieces = SplitAndTrim("  solo  ", ',');
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "solo");
}

}  // namespace
}  // namespace gfair

// ArgParser suite: the one flag vocabulary shared by the benches and the
// service binaries. Covers flags, valued options with fallbacks, typed and
// list accessors, the single positional, and the rejection paths (unknown
// flag, missing value, extra positional) that used to be hand-rolled — and
// could drift — per bench main.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli/arg_parser.hpp"

namespace wp::cli {
namespace {

/// argv builder: keeps the strings alive and hands out char** like main's.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    for (std::string& s : strings) pointers.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers.size()); }
  char** argv() { return pointers.data(); }

  std::vector<std::string> strings;
  std::vector<char*> pointers;
};

ArgParser make_parser() {
  ArgParser parser("tool", "test parser");
  parser.flag("--verbose", "say more");
  parser.option("--count", "N", "7", "how many");
  parser.option("--scale", "X", "1.5", "by how much");
  parser.option("--names", "A,B,...", "", "which ones");
  parser.positional("MODE", "default-mode", "what to do");
  return parser;
}

TEST(ArgParser, DefaultsWhenNothingPassed) {
  ArgParser parser = make_parser();
  Argv argv({"tool"});
  ASSERT_TRUE(parser.parse(argv.argc(), argv.argv())) << parser.error();
  EXPECT_FALSE(parser.has("--verbose"));
  EXPECT_EQ(parser.get("--count"), "7");
  EXPECT_EQ(parser.get_int("--count"), 7);
  EXPECT_EQ(parser.get("--scale"), "1.5");
  EXPECT_TRUE(parser.get_list("--names").empty());
  EXPECT_EQ(parser.positional_value(), "default-mode");
}

TEST(ArgParser, ParsesFlagsOptionsAndPositional) {
  ArgParser parser = make_parser();
  Argv argv({"tool", "--verbose", "--count", "42", "--names", "a,b,c",
             "run-this"});
  ASSERT_TRUE(parser.parse(argv.argc(), argv.argv())) << parser.error();
  EXPECT_TRUE(parser.has("--verbose"));
  EXPECT_EQ(parser.get_int("--count"), 42);
  const std::vector<std::string> names = parser.get_list("--names");
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[2], "c");
  EXPECT_EQ(parser.positional_value(), "run-this");
}

TEST(ArgParser, RejectsUnknownFlag) {
  ArgParser parser = make_parser();
  Argv argv({"tool", "--nonsense"});
  EXPECT_FALSE(parser.parse(argv.argc(), argv.argv()));
  EXPECT_NE(parser.error().find("--nonsense"), std::string::npos);
}

TEST(ArgParser, RejectsOptionMissingItsValue) {
  ArgParser parser = make_parser();
  Argv argv({"tool", "--count"});
  EXPECT_FALSE(parser.parse(argv.argc(), argv.argv()));
  EXPECT_NE(parser.error().find("--count"), std::string::npos);
}

TEST(ArgParser, RejectsExtraPositional) {
  ArgParser parser = make_parser();
  Argv argv({"tool", "one", "two"});
  EXPECT_FALSE(parser.parse(argv.argc(), argv.argv()));
}

TEST(ArgParser, RejectsPositionalWhenNoneDeclared) {
  ArgParser parser("tool", "no positional");
  parser.flag("--verbose", "say more");
  Argv argv({"tool", "stray"});
  EXPECT_FALSE(parser.parse(argv.argc(), argv.argv()));
}

TEST(ArgParser, UsageNamesEveryDeclaredArgument) {
  ArgParser parser = make_parser();
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("tool"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("MODE"), std::string::npos);
}

}  // namespace
}  // namespace wp::cli

#include "eval/flags.h"

#include <gtest/gtest.h>

#include <vector>

namespace edgeshed::eval {
namespace {

Flags MakeFlags(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "binary");
  std::vector<char*> argv;
  for (auto& arg : storage) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  auto flags = MakeFlags({"--scale=0.5", "--name=test"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.5);
  EXPECT_EQ(flags.GetString("name", ""), "test");
}

TEST(FlagsTest, SpaceSyntax) {
  auto flags = MakeFlags({"--seed", "42"});
  EXPECT_EQ(flags.GetInt("seed", 0), 42);
}

TEST(FlagsTest, BareFlagIsTrue) {
  auto flags = MakeFlags({"--full"});
  EXPECT_TRUE(flags.GetBool("full", false));
  EXPECT_TRUE(flags.Has("full"));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  auto flags = MakeFlags({});
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 2.5), 2.5);
  EXPECT_EQ(flags.GetInt("seed", 7), 7);
  EXPECT_FALSE(flags.GetBool("full", false));
  EXPECT_EQ(flags.GetString("name", "fallback"), "fallback");
  EXPECT_FALSE(flags.Has("anything"));
}

TEST(FlagsTest, ExplicitFalse) {
  auto flags = MakeFlags({"--full=false", "--other=0"});
  EXPECT_FALSE(flags.GetBool("full", true));
  EXPECT_FALSE(flags.GetBool("other", true));
}

TEST(FlagsTest, PositionalArguments) {
  auto flags = MakeFlags({"input.txt", "--scale=2", "output.txt"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "output.txt");
}

TEST(FlagsTest, NegativeNumbersViaEquals) {
  auto flags = MakeFlags({"--offset=-3"});
  EXPECT_EQ(flags.GetInt("offset", 0), -3);
}

TEST(FlagsTest, LastValueWins) {
  auto flags = MakeFlags({"--p=0.1", "--p=0.9"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 0.0), 0.9);
}

TEST(FlagsTest, NamesListsEveryParsedFlagSorted) {
  auto flags = MakeFlags({"--seed", "42", "run", "--ouput=r.txt", "--full"});
  EXPECT_EQ(flags.Names(),
            (std::vector<std::string>{"full", "ouput", "seed"}));
  EXPECT_TRUE(MakeFlags({"positional"}).Names().empty());
}

}  // namespace
}  // namespace edgeshed::eval

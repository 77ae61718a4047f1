#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <vector>

#include "number_tokens.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace parda {
namespace {

std::vector<char*> make_argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

TEST(CliParserTest, ParsesEqualsAndSpaceForms) {
  std::string name = "default";
  std::uint64_t count = 0;
  double rate = 0.0;
  bool flag = false;
  CliParser cli("test");
  cli.add_flag("name", &name, "a string");
  cli.add_flag("count", &count, "a count");
  cli.add_flag("rate", &rate, "a rate");
  cli.add_flag("flag", &flag, "a bool");

  std::vector<std::string> args{"prog",    "--name=widget", "--count",
                                "42",      "--rate=2.5",    "--flag",
                                "positional"};
  auto argv = make_argv(args);
  cli.parse(static_cast<int>(argv.size()), argv.data());

  EXPECT_EQ(name, "widget");
  EXPECT_EQ(count, 42u);
  EXPECT_DOUBLE_EQ(rate, 2.5);
  EXPECT_TRUE(flag);
  ASSERT_EQ(cli.positionals().size(), 1u);
  EXPECT_EQ(cli.positionals()[0], "positional");
}

TEST(CliParserTest, DefaultsSurviveWhenAbsent) {
  std::uint64_t count = 7;
  CliParser cli("test");
  cli.add_flag("count", &count, "a count");
  std::vector<std::string> args{"prog"};
  auto argv = make_argv(args);
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(count, 7u);
}

TEST(CliParserTest, HexAndBoolValues) {
  std::uint64_t count = 0;
  bool flag = true;
  CliParser cli("test");
  cli.add_flag("count", &count, "a count");
  cli.add_flag("flag", &flag, "a bool");
  std::vector<std::string> args{"prog", "--count=0x10", "--flag=false"};
  auto argv = make_argv(args);
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(count, 16u);
  EXPECT_FALSE(flag);
}

TEST(CliParserTest, UnknownFlagExits) {
  CliParser cli("test");
  std::vector<std::string> args{"prog", "--bogus=1"};
  auto argv = make_argv(args);
  EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(kExitUsage), "unknown flag");
}

TEST(CliParserTest, MissingValueExits) {
  std::uint64_t count = 0;
  CliParser cli("test");
  cli.add_flag("count", &count, "a count");
  std::vector<std::string> args{"prog", "--count"};
  auto argv = make_argv(args);
  EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(kExitUsage), "requires a value");
}

TEST(CliParserTest, MalformedIntegerExitsUsage) {
  std::uint64_t count = 0;
  CliParser cli("test");
  cli.add_flag("count", &count, "a count");
  std::vector<std::string> args{"prog", "--count=12abc"};
  auto argv = make_argv(args);
  EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(kExitUsage), "needs an integer");
}

TEST(CliParserTest, NegativeUnsignedExitsUsage) {
  std::uint64_t count = 0;
  CliParser cli("test");
  cli.add_flag("count", &count, "a count");
  std::vector<std::string> args{"prog", "--count=-4"};
  auto argv = make_argv(args);
  EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(kExitUsage), "non-negative");
}

TEST(CliParserTest, EveryHostileIntegerExitsUsage) {
  for (const std::string& token : test::hostile_integer_tokens()) {
    std::uint64_t count = 0;
    CliParser cli("test");
    cli.add_flag("count", &count, "a count");
    std::vector<std::string> args{"prog", "--count=" + token};
    auto argv = make_argv(args);
    EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(kExitUsage), "needs an integer")
        << "'" << token << "'";
  }
}

TEST(CliParserTest, ValidIntegersReadBack) {
  for (const auto& [token, value] : test::valid_integer_tokens()) {
    std::uint64_t count = 0;
    CliParser cli("test");
    cli.add_flag("count", &count, "a count");
    std::vector<std::string> args{"prog", "--count", token};
    auto argv = make_argv(args);
    cli.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(count, value) << token;
  }
}

TEST(CliParserTest, IntFlagsStayInRange) {
  int procs = 0;
  CliParser cli("test");
  cli.add_flag("procs", &procs, "ranks");
  std::vector<std::string> args{"prog", "--procs=2147483647"};
  auto argv = make_argv(args);
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(procs, INT_MAX);
  // Values above INT_MAX are rejected, not truncated (4294967297 would
  // otherwise run as one rank).
  for (const char* token : {"2147483648", "4294967297", "-1"}) {
    int ranks = 0;
    CliParser range_cli("test");
    range_cli.add_flag("procs", &ranks, "ranks");
    std::vector<std::string> range_args{"prog",
                                        std::string("--procs=") + token};
    auto range_argv = make_argv(range_args);
    EXPECT_EXIT(range_cli.parse(static_cast<int>(range_argv.size()),
                                range_argv.data()),
                ::testing::ExitedWithCode(kExitUsage), "at most 2147483647")
        << token;
  }
}

TEST(CliParserTest, DoubleFlagsReadOneFiniteNumber) {
  for (const auto& [token, value] :
       std::vector<std::pair<std::string, double>>{
           {"2.5", 2.5}, {"1e3", 1000.0}, {"007", 7.0}, {"-0.5", -0.5}}) {
    double rate = 0.0;
    CliParser cli("test");
    cli.add_flag("rate", &rate, "a rate");
    std::vector<std::string> args{"prog", "--rate=" + token};
    auto argv = make_argv(args);
    cli.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(rate, value) << token;
  }
  for (const char* token : {"", "+1", " 1", "1 ", "1x", "inf", "nan"}) {
    double rate = 0.0;
    CliParser cli("test");
    cli.add_flag("rate", &rate, "a rate");
    std::vector<std::string> args{"prog", std::string("--rate=") + token};
    auto argv = make_argv(args);
    EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(kExitUsage), "needs a number")
        << "'" << token << "'";
  }
}

TEST(CliParserTest, MalformedBoolExitsUsage) {
  bool flag = false;
  CliParser cli("test");
  cli.add_flag("flag", &flag, "a bool");
  std::vector<std::string> args{"prog", "--flag=maybe"};
  auto argv = make_argv(args);
  EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(kExitUsage), "needs a boolean");
}

TEST(CliParserTest, HelpExitsZero) {
  CliParser cli("test");
  std::vector<std::string> args{"prog", "--help"};
  auto argv = make_argv(args);
  EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(0), "usage");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer-name", "23456"});

  std::string path = std::string(::testing::TempDir()) + "/table.txt";
  std::FILE* f = std::fopen(path.c_str(), "w+");
  ASSERT_NE(f, nullptr);
  table.print(f);
  std::fflush(f);
  std::rewind(f);
  char buf[512] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());

  const std::string out(buf, n);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Each line of the body is equally wide up to trailing spaces: check
  // the header separator exists.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::fmt_u64(1234567), "1,234,567");
}

}  // namespace
}  // namespace parda

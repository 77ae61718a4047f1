#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "number_tokens.hpp"
#include "util/parse.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace parda {
namespace {

TEST(Xoshiro256Test, DeterministicForSameSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256Test, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Xoshiro256Test, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Xoshiro256Test, BelowOneAlwaysZero) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Xoshiro256Test, RangeInclusive) {
  Xoshiro256 rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Xoshiro256Test, UniformInUnitInterval) {
  Xoshiro256 rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Xoshiro256Test, JumpProducesDisjointStream) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  b.jump();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Mix64Test, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(ZipfSamplerTest, StaysInRange) {
  Xoshiro256 rng(17);
  ZipfSampler zipf(100, 0.8);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(zipf(rng), 100u);
}

TEST(ZipfSamplerTest, RankZeroIsHottest) {
  Xoshiro256 rng(19);
  ZipfSampler zipf(1000, 1.0);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[100]);
  EXPECT_GT(counts[10], counts[500]);
}

TEST(ZipfSamplerTest, AlphaZeroIsRoughlyUniform) {
  Xoshiro256 rng(23);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 1200);
}

TEST(ZipfSamplerTest, SingleElement) {
  Xoshiro256 rng(29);
  ZipfSampler zipf(1, 1.2);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf(rng), 0u);
}

TEST(RandomPermutationTest, IsAPermutation) {
  Xoshiro256 rng(31);
  const auto perm = random_permutation(257, rng);
  ASSERT_EQ(perm.size(), 257u);
  std::set<std::uint64_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(StatsTest, MeanAndStdev) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stdev(xs), 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(stdev(std::vector<double>{2.0}), 0.0);
}

TEST(StatsTest, MedianAndPercentile) {
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100), 5.0);
}

TEST(StatsTest, Geomean) {
  EXPECT_NEAR(geomean(std::vector<double>{1, 100}), 10.0, 1e-9);
  EXPECT_NEAR(geomean(std::vector<double>{2, 2, 2}), 2.0, 1e-12);
}

TEST(StatsTest, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(12081037), "12,081,037");
  EXPECT_EQ(with_commas(1234567890), "1,234,567,890");
}

TEST(StatsTest, WordsHuman) {
  EXPECT_EQ(words_human(512), "512w");
  EXPECT_EQ(words_human(1ULL << 10), "1Kw");
  EXPECT_EQ(words_human(512ULL << 10), "512Kw");
  EXPECT_EQ(words_human(2ULL << 20), "2Mw");
  EXPECT_EQ(words_human(64ULL << 20), "64Mw");
  EXPECT_EQ(words_human(1000), "1000w");
}

TEST(TypesTest, Sentinels) {
  EXPECT_EQ(kInfiniteDistance, ~0ULL);
  EXPECT_EQ(kNoTimestamp, ~0ULL);
}

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

TEST(ParseNumberTest, U64RejectsEveryHostileToken) {
  for (const std::string& token : test::hostile_integer_tokens()) {
    EXPECT_FALSE(parse_u64(token).has_value()) << "'" << token << "'";
  }
  EXPECT_FALSE(parse_u64("0X").has_value());
  EXPECT_FALSE(parse_u64("0x0x1").has_value());
  EXPECT_FALSE(parse_u64("0x-1").has_value());
  EXPECT_FALSE(parse_u64("0x10000000000000000").has_value());
}

TEST(ParseNumberTest, U64ReadsValidTokens) {
  for (const auto& [token, value] : test::valid_integer_tokens()) {
    EXPECT_EQ(parse_u64(token), value) << token;
  }
  EXPECT_EQ(parse_u64("010"), 10u);  // leading zeros are decimal
  EXPECT_EQ(parse_u64("0X1f"), 31u);
  EXPECT_EQ(parse_u64("0xFFFFFFFFFFFFFFFF"), ~0ULL);
  EXPECT_EQ(parse_u64(std::string(300, '0') + "7"), 7u);
}

TEST(ParseNumberTest, U64HonoursItsMaximum) {
  EXPECT_EQ(parse_u64("255", 255), 255u);
  EXPECT_FALSE(parse_u64("256", 255).has_value());
  EXPECT_FALSE(parse_u64("0x100", 255).has_value());
  EXPECT_EQ(parse_u64("0", 0), 0u);
}

TEST(ParseNumberTest, I64RejectsHostileTokensAndReadsNegatives) {
  for (const std::string& token : test::hostile_integer_tokens()) {
    if (token == "-1") continue;  // a valid signed token
    EXPECT_FALSE(parse_i64(token, kI64Min, kI64Max).has_value())
        << "'" << token << "'";
  }
  for (const auto& [token, value] : test::valid_integer_tokens()) {
    if (value > static_cast<std::uint64_t>(kI64Max)) {
      EXPECT_FALSE(parse_i64(token, kI64Min, kI64Max).has_value()) << token;
    } else {
      EXPECT_EQ(parse_i64(token, kI64Min, kI64Max),
                static_cast<std::int64_t>(value))
          << token;
    }
  }
  EXPECT_EQ(parse_i64("-1", kI64Min, kI64Max), -1);
  EXPECT_EQ(parse_i64("-0x10", kI64Min, kI64Max), -16);
  EXPECT_EQ(parse_i64("-0", kI64Min, kI64Max), 0);
  EXPECT_EQ(parse_i64("-9223372036854775808", kI64Min, kI64Max), kI64Min);
  EXPECT_EQ(parse_i64("9223372036854775807", kI64Min, kI64Max), kI64Max);
  EXPECT_FALSE(parse_i64("-9223372036854775809", kI64Min, kI64Max));
  EXPECT_FALSE(parse_i64("9223372036854775808", kI64Min, kI64Max));
  EXPECT_FALSE(parse_i64("-", kI64Min, kI64Max));
  EXPECT_FALSE(parse_i64("--1", kI64Min, kI64Max));
  EXPECT_FALSE(parse_i64("- 1", kI64Min, kI64Max));
}

TEST(ParseNumberTest, I64HonoursItsRange) {
  EXPECT_EQ(parse_i64("-3", -3, 3), -3);
  EXPECT_EQ(parse_i64("3", -3, 3), 3);
  EXPECT_FALSE(parse_i64("-4", -3, 3));
  EXPECT_FALSE(parse_i64("4", -3, 3));
  EXPECT_FALSE(parse_i64("-1", 0, 10));
}

TEST(ParseNumberTest, F64ReadsOneFiniteValue) {
  EXPECT_EQ(parse_f64("0.5"), 0.5);
  EXPECT_EQ(parse_f64("1e3"), 1000.0);
  EXPECT_EQ(parse_f64("-2"), -2.0);
  EXPECT_EQ(parse_f64("007"), 7.0);
  EXPECT_EQ(parse_f64("1.5"), 1.5);
  for (const char* token :
       {"", "+1", " 1", "1 ", "1x", "0x1p3", "inf", "-inf", "nan", "1e400",
        "1,5", ".", "e3"}) {
    EXPECT_FALSE(parse_f64(token).has_value()) << "'" << token << "'";
  }
}

TEST(ParseNumberTest, SplitKeepsEmptyParts) {
  EXPECT_EQ(split("a,,b", ','),
            (std::vector<std::string_view>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string_view>{""}));
  EXPECT_EQ(split("a,", ','), (std::vector<std::string_view>{"a", ""}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string_view>{"abc"}));
}

TEST(ParseNumberTest, TrimStripsSpacesTabsAndCarriageReturns) {
  EXPECT_EQ(trim(" \t 12 \r"), "12");
  EXPECT_EQ(trim(" \t\r "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(AddressLinesTest, ReadsOneAddressPerLine) {
  std::vector<Addr> out;
  const std::string text = "# header\n1\n\n  0x10\t\r\n007\n   # note\n" +
                           std::string(300, '0') + "7\n18446744073709551615";
  EXPECT_FALSE(read_address_lines(text, out).has_value());
  EXPECT_EQ(out, (std::vector<Addr>{1, 16, 7, 7, ~0ULL}));
}

TEST(AddressLinesTest, ReturnsTheFirstBadLineOffset) {
  std::vector<Addr> out;
  EXPECT_EQ(read_address_lines("1\n2x\n-1\n", out), 2u);
  EXPECT_EQ(out, (std::vector<Addr>{1}));
}

TEST(AddressLinesTest, EveryHostileTokenIsABadLine) {
  for (const std::string& token : test::hostile_integer_tokens()) {
    std::vector<Addr> out;
    const std::optional<std::size_t> bad =
        read_address_lines("5\n" + token + "\n6\n", out);
    if (test::whitespace_or_empty(token)) {
      // Lines are trimmed and blank lines skipped.
      EXPECT_FALSE(bad.has_value()) << "'" << token << "'";
      continue;
    }
    EXPECT_EQ(bad, 2u) << "'" << token << "'";
  }
}

}  // namespace
}  // namespace parda

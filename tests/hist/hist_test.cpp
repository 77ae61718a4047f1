#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "../util/mutations.hpp"
#include "../util/number_tokens.hpp"
#include "hist/histogram.hpp"
#include "hist/mrc.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"
#include "util/types.hpp"

namespace parda {
namespace {

TEST(HistogramJsonTest, RoundTripPreservesEveryBucket) {
  Histogram h;
  h.record(0, 3);
  h.record(7, 2);
  h.record(1u << 20, 1);  // sparse far bucket
  h.record(kInfiniteDistance, 5);

  const std::string text = h.to_json();
  const Histogram back = Histogram::from_json(text);
  EXPECT_TRUE(back == h);
  EXPECT_EQ(back.total(), h.total());
  EXPECT_EQ(back.infinities(), 5u);
  EXPECT_EQ(back.at(1u << 20), 1u);

  // The interchange document itself: schema-tagged, sparse finite pairs.
  const json::Value doc = json::parse(text);
  EXPECT_EQ(doc.at("schema").as_string(), "parda.histogram.v1");
  EXPECT_EQ(doc.at("total").as_u64(), h.total());
  EXPECT_EQ(doc.at("infinities").as_u64(), 5u);
  EXPECT_EQ(doc.at("finite").array.size(), 3u);  // only occupied buckets
}

TEST(HistogramJsonTest, EmptyHistogramRoundTrips) {
  const Histogram empty;
  const Histogram back = Histogram::from_json(empty.to_json());
  EXPECT_TRUE(back == empty);
  EXPECT_EQ(back.total(), 0u);
}

TEST(HistogramJsonTest, RejectsMalformedAndMismatchedDocuments) {
  EXPECT_THROW(Histogram::from_json("not json"), json::JsonError);
  EXPECT_THROW(Histogram::from_json("{}"), json::JsonError);
  // Wrong schema tag.
  EXPECT_THROW(
      Histogram::from_json(
          R"({"schema":"parda.metrics.v1","total":0,"infinities":0,"finite":[]})"),
      json::JsonError);
  // Total inconsistent with the buckets: corruption must not pass silently.
  EXPECT_THROW(
      Histogram::from_json(
          R"({"schema":"parda.histogram.v1","total":9,"infinities":1,"finite":[[2,3]]})"),
      json::JsonError);
}

TEST(HistogramJsonTest, CountsAndDistancesAreStrictIntegers) {
  const auto doc = [](const std::string& d, const std::string& count,
                      const std::string& total) {
    return R"({"schema":"parda.histogram.v1","total":)" + total +
           R"(,"infinities":1,"finite":[[)" + d + "," + count + "]]}";
  };
  EXPECT_EQ(Histogram::from_json(doc("007", "2", "3")).at(7), 2u);
  for (const std::string& token : test::hostile_integer_tokens()) {
    if (test::whitespace_or_empty(token)) continue;  // JSON whitespace
    EXPECT_THROW(Histogram::from_json(doc(token, "2", "3")), json::JsonError)
        << token;
    EXPECT_THROW(Histogram::from_json(doc("7", token, "3")), json::JsonError)
        << token;
    EXPECT_THROW(Histogram::from_json(doc("7", "2", token)), json::JsonError)
        << token;
  }
  // Misreads before the parser: a count of -1 passed the totals check by
  // wrapping (2^64 - 1 + 1 == 0); distances 1.9 and 1e1 read as 1.
  EXPECT_THROW(Histogram::from_json(doc("7", "-1", "0")), json::JsonError);
  EXPECT_THROW(Histogram::from_json(doc("1.9", "2", "3")), json::JsonError);
  EXPECT_THROW(Histogram::from_json(doc("1e1", "2", "3")), json::JsonError);
}

TEST(HistogramJsonTest, RejectsOutOfRangeDistancesAndWrappingCounts) {
  const auto doc = [](const std::string& d, const std::string& count,
                      const std::string& infinities,
                      const std::string& total) {
    return R"({"schema":"parda.histogram.v1","finite":[[)" + d + "," +
           count + R"(]],"infinities":)" + infinities + R"(,"total":)" +
           total + "}";
  };
  for (const std::uint64_t d : {
           kMaxJsonDistance,
           std::uint64_t{1} << 40,   // was bad_alloc from the dense resize
           std::uint64_t{1} << 48,   // was an abort in record's guard
           kInfiniteDistance - 1,    // likewise
           kInfiniteDistance,        // was counted as an infinity
       }) {
    EXPECT_THROW(Histogram::from_json(doc(std::to_string(d), "1", "0", "1")),
                 json::JsonError)
        << d;
  }
  // The counts summed to 2^64 + 1, which wrapped to the stated total.
  EXPECT_THROW(Histogram::from_json(
                   doc("1", std::to_string(~std::uint64_t{0}), "2", "1")),
               json::JsonError);
  EXPECT_THROW(
      Histogram::from_json(
          R"({"schema":"parda.histogram.v1","finite":[[1,9223372036854775808],)"
          R"([2,9223372036854775808]],"infinities":0,"total":0})"),
      json::JsonError);
}

TEST(HistogramJsonTest, HostileBytesThrowOrRoundTrip) {
  // Every truncation, a one-byte extension and every bit flip of a small
  // document either throws JsonError or reads as a histogram that
  // round-trips through to_json.
  Histogram h;
  h.record(0, 3);
  h.record(7, 2);
  h.record(300, 1);
  h.record(kInfiniteDistance, 5);
  const std::string text = h.to_json();
  std::size_t read = 0;
  for_each_mutation(
      std::vector<std::uint8_t>(text.begin(), text.end()),
      [&](const Mutation& m) {
        try {
          const Histogram back = Histogram::from_json(
              std::string(m.bytes.begin(), m.bytes.end()));
          ++read;
          EXPECT_TRUE(Histogram::from_json(back.to_json()) == back)
              << m.label;
        } catch (const json::JsonError&) {
        } catch (const std::exception& e) {
          ADD_FAILURE() << m.label << ": not a JsonError: " << e.what();
        }
      });
  EXPECT_GT(read, 0u);  // e.g. a flipped distance digit reads back
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.infinities(), 0u);
  EXPECT_EQ(h.at(0), 0u);
  EXPECT_EQ(h.max_distance(), 0u);
  EXPECT_EQ(h.hits_below(1000), 0u);
}

TEST(HistogramTest, RecordFiniteAndInfinite) {
  Histogram h;
  h.record(0);
  h.record(0);
  h.record(5);
  h.record(kInfiniteDistance);
  EXPECT_EQ(h.at(0), 2u);
  EXPECT_EQ(h.at(5), 1u);
  EXPECT_EQ(h.at(3), 0u);
  EXPECT_EQ(h.infinities(), 1u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.finite_total(), 3u);
  EXPECT_EQ(h.max_distance(), 5u);
}

TEST(HistogramTest, RecordWithCount) {
  Histogram h;
  h.record(7, 10);
  h.record(kInfiniteDistance, 3);
  h.record(7, 0);  // no-op
  EXPECT_EQ(h.at(7), 10u);
  EXPECT_EQ(h.infinities(), 3u);
  EXPECT_EQ(h.total(), 13u);
}

TEST(HistogramTest, HitsBelow) {
  Histogram h;
  h.record(0, 4);
  h.record(1, 3);
  h.record(10, 2);
  h.record(kInfiniteDistance, 5);
  EXPECT_EQ(h.hits_below(0), 0u);
  EXPECT_EQ(h.hits_below(1), 4u);
  EXPECT_EQ(h.hits_below(2), 7u);
  EXPECT_EQ(h.hits_below(10), 7u);
  EXPECT_EQ(h.hits_below(11), 9u);
  EXPECT_EQ(h.hits_below(1 << 20), 9u);
}

TEST(HistogramTest, MergeAddsElementwise) {
  Histogram a;
  a.record(1, 2);
  a.record(kInfiniteDistance);
  Histogram b;
  b.record(1, 3);
  b.record(100, 1);
  a.merge(b);
  EXPECT_EQ(a.at(1), 5u);
  EXPECT_EQ(a.at(100), 1u);
  EXPECT_EQ(a.infinities(), 1u);
  EXPECT_EQ(a.total(), 7u);
}

TEST(HistogramTest, MergeIntoEmpty) {
  Histogram a;
  Histogram b;
  b.record(3, 7);
  a.merge(b);
  EXPECT_TRUE(a == b);
}

TEST(HistogramTest, EqualityIgnoresTrailingZeros) {
  Histogram a;
  a.record(1);
  a.record(1000);  // grows the dense array
  Histogram b;
  b.record(1000);
  b.record(1);
  EXPECT_TRUE(a == b);
  b.record(2);
  EXPECT_FALSE(a == b);
}

TEST(HistogramTest, SerializationRoundTrip) {
  Histogram h;
  h.record(0, 3);
  h.record(17, 2);
  h.record(kInfiniteDistance, 9);
  const Histogram back = Histogram::from_words(h.to_words());
  EXPECT_TRUE(h == back);
  EXPECT_EQ(back.infinities(), 9u);
  EXPECT_EQ(back.at(17), 2u);
}

TEST(HistogramTest, SerializationOfEmpty) {
  Histogram h;
  const Histogram back = Histogram::from_words(h.to_words());
  EXPECT_TRUE(h == back);
  EXPECT_EQ(back.total(), 0u);
}

TEST(HistogramTest, SpareWordsOnlyReserve) {
  Histogram h;
  h.record(3, 2);
  h.record(kInfiniteDistance, 1);
  const std::vector<std::uint64_t> words = h.to_words(6);
  EXPECT_EQ(words, h.to_words());
  EXPECT_GE(words.capacity(), words.size() + 6);
}

TEST(HistogramTest, FromWordsRefusesMalformedWords) {
  // The words may come from another process: every defect is a CheckError
  // the job can report, never an abort of the process.
  Histogram h;
  h.record(0, 3);
  h.record(2, 1);
  h.record(kInfiniteDistance, 4);
  const std::vector<std::uint64_t> words = h.to_words();
  ASSERT_EQ(words, (std::vector<std::uint64_t>{4, 8, 3, 3, 0, 1}));
  for (std::size_t n = 0; n < words.size(); ++n) {
    SCOPED_TRACE("truncated to " + std::to_string(n) + " words");
    EXPECT_THROW(Histogram::from_words(std::span(words).first(n)),
                 CheckError);
  }
  std::vector<std::uint64_t> longer = words;
  longer.push_back(0);
  EXPECT_THROW(Histogram::from_words(longer), CheckError);

  std::vector<std::uint64_t> bumped = words;
  ++bumped[1];  // total no longer infinities + counts
  EXPECT_THROW(Histogram::from_words(bumped), CheckError);

  // Counts chosen so their sum wraps to exactly the declared total.
  std::vector<std::uint64_t> wrapping = words;
  wrapping[3] = std::numeric_limits<std::uint64_t>::max();
  wrapping[5] = 2;  // 4 + 2^64 - 1 + 0 + 2 wraps to 5
  wrapping[1] = 5;
  EXPECT_THROW(Histogram::from_words(wrapping), CheckError);
}

TEST(HistogramTest, Log2Buckets) {
  Histogram h;
  h.record(0, 1);   // bucket 0
  h.record(1, 2);   // bucket 1: [1, 2)
  h.record(2, 4);   // bucket 2: [2, 4)
  h.record(3, 8);   // bucket 2
  h.record(4, 16);  // bucket 3: [4, 8)
  h.record(kInfiniteDistance, 100);
  const auto buckets = h.log2_buckets();
  ASSERT_GE(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 12u);
  EXPECT_EQ(buckets[3], 16u);
}

Histogram random_histogram(Xoshiro256& rng) {
  Histogram h;
  const int bins = static_cast<int>(rng.below(8));
  for (int b = 0; b < bins; ++b) {
    h.record(rng.below(1 << 12), 1 + rng.below(100));
  }
  h.record(kInfiniteDistance, rng.below(10));
  return h;
}

TEST(HistogramTest, MergeIsCommutativeAndAssociative) {
  Xoshiro256 rng(55);
  for (int round = 0; round < 50; ++round) {
    const Histogram a = random_histogram(rng);
    const Histogram b = random_histogram(rng);
    const Histogram c = random_histogram(rng);

    Histogram ab = a;
    ab.merge(b);
    Histogram ba = b;
    ba.merge(a);
    EXPECT_TRUE(ab == ba);

    Histogram ab_c = ab;
    ab_c.merge(c);
    Histogram bc = b;
    bc.merge(c);
    Histogram a_bc = a;
    a_bc.merge(bc);
    EXPECT_TRUE(ab_c == a_bc);

    // Totals are additive.
    EXPECT_EQ(ab.total(), a.total() + b.total());
    EXPECT_EQ(ab.infinities(), a.infinities() + b.infinities());
  }
}

TEST(HistogramTest, SerializationRoundTripFuzz) {
  Xoshiro256 rng(77);
  for (int round = 0; round < 50; ++round) {
    const Histogram h = random_histogram(rng);
    EXPECT_TRUE(Histogram::from_words(h.to_words()) == h);
  }
}

TEST(HistogramTest, MergeIdentity) {
  Xoshiro256 rng(99);
  const Histogram h = random_histogram(rng);
  Histogram merged = h;
  merged.merge(Histogram{});
  EXPECT_TRUE(merged == h);
  Histogram other;
  other.merge(h);
  EXPECT_TRUE(other == h);
}

TEST(HistogramTest, MeanFiniteDistance) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.mean_finite_distance(), 0.0);
  h.record(2, 3);
  h.record(10, 1);
  h.record(kInfiniteDistance, 100);  // excluded
  EXPECT_DOUBLE_EQ(h.mean_finite_distance(), 16.0 / 4.0);
}

TEST(HistogramTest, FiniteDistancePercentile) {
  Histogram h;
  EXPECT_EQ(h.finite_distance_percentile(0.5), 0u);
  h.record(1, 50);
  h.record(8, 40);
  h.record(100, 10);
  h.record(kInfiniteDistance, 999);
  EXPECT_EQ(h.finite_distance_percentile(0.25), 1u);
  EXPECT_EQ(h.finite_distance_percentile(0.5), 1u);
  EXPECT_EQ(h.finite_distance_percentile(0.75), 8u);
  EXPECT_EQ(h.finite_distance_percentile(1.0), 100u);
}

TEST(MrcTest, MissRatioBasics) {
  Histogram h;
  h.record(0, 50);
  h.record(10, 30);
  h.record(kInfiniteDistance, 20);
  EXPECT_DOUBLE_EQ(miss_ratio(h, 1), 0.5);    // only d=0 hits
  EXPECT_DOUBLE_EQ(miss_ratio(h, 11), 0.2);   // all finite hit
  EXPECT_DOUBLE_EQ(miss_ratio(h, 5), 0.5);    // d=10 still misses
  EXPECT_EQ(miss_count(h, 11), 20u);
  EXPECT_DOUBLE_EQ(miss_ratio(Histogram{}, 4), 0.0);
}

TEST(MrcTest, CurveIsMonotonicallyNonIncreasing) {
  Histogram h;
  for (Distance d = 0; d < 100; ++d) h.record(d, 100 - d);
  h.record(kInfiniteDistance, 13);
  const auto curve =
      miss_ratio_curve(h, {1, 2, 4, 8, 16, 32, 64, 128, 256});
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].miss_ratio, curve[i - 1].miss_ratio);
  }
  EXPECT_NEAR(curve.back().miss_ratio,
              13.0 / static_cast<double>(h.total()), 1e-12);
}

TEST(MrcTest, Pow2CurveStopsAtCompulsoryFloor) {
  Histogram h;
  h.record(1, 10);
  h.record(kInfiniteDistance, 10);
  const auto curve = miss_ratio_curve_pow2(h, 1 << 20);
  ASSERT_FALSE(curve.empty());
  EXPECT_DOUBLE_EQ(curve.back().miss_ratio, 0.5);
  EXPECT_LT(curve.back().cache_size, 1u << 20);
}

TEST(MrcTest, CacheSizeForMissRatio) {
  Histogram h;
  h.record(0, 25);
  h.record(4, 25);
  h.record(16, 25);
  h.record(kInfiniteDistance, 25);
  // miss ratio: C<=0:1.0, 1..4:0.75, 5..16:0.5, >16:0.25
  EXPECT_EQ(cache_size_for_miss_ratio(h, 0.75, 1000), 1u);
  EXPECT_EQ(cache_size_for_miss_ratio(h, 0.5, 1000), 5u);
  EXPECT_EQ(cache_size_for_miss_ratio(h, 0.25, 1000), 17u);
  EXPECT_EQ(cache_size_for_miss_ratio(h, 0.1, 1000), 1001u);  // unattainable
}

}  // namespace
}  // namespace parda

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "reference/interval_analyzer.hpp"
#include "reference/interval_set.hpp"
#include "seq/olken.hpp"
#include "util/prng.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

TEST(IntervalSetTest, EmptySet) {
  IntervalSet set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.count_in(0, 100), 0u);
  EXPECT_FALSE(set.contains(5));
  EXPECT_TRUE(set.validate());
}

TEST(IntervalSetTest, SinglePoint) {
  IntervalSet set;
  set.insert(10);
  EXPECT_TRUE(set.contains(10));
  EXPECT_FALSE(set.contains(9));
  EXPECT_FALSE(set.contains(11));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.count_in(0, 100), 1u);
  EXPECT_EQ(set.count_in(10, 10), 1u);
  EXPECT_EQ(set.count_in(11, 20), 0u);
  EXPECT_TRUE(set.validate());
}

TEST(IntervalSetTest, AdjacentPointsMerge) {
  IntervalSet set;
  set.insert(5);
  set.insert(7);
  EXPECT_EQ(set.interval_count(), 2u);
  set.insert(6);  // bridges
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_EQ(set.intervals()[0], (IntervalSet::Interval{5, 7}));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.validate());
}

TEST(IntervalSetTest, GrowLeftAndRight) {
  IntervalSet set;
  set.insert(10);
  set.insert(11);  // extend right
  EXPECT_EQ(set.interval_count(), 1u);
  set.insert(9);  // extend left
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_EQ(set.intervals()[0], (IntervalSet::Interval{9, 11}));
  EXPECT_TRUE(set.validate());
}

TEST(IntervalSetTest, SequentialInsertStaysOneInterval) {
  IntervalSet set;
  for (std::uint64_t p = 0; p < 10000; ++p) set.insert(p);
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_EQ(set.size(), 10000u);
  EXPECT_EQ(set.count_in(100, 199), 100u);
  EXPECT_TRUE(set.validate());
}

TEST(IntervalSetTest, ExtremeBounds) {
  IntervalSet set;
  set.insert(0);
  set.insert(~0ULL);
  EXPECT_EQ(set.count_in(0, ~0ULL), 2u);
  EXPECT_EQ(set.count_in(1, ~0ULL - 1), 0u);
  EXPECT_TRUE(set.validate());
}

TEST(IntervalSetTest, RandomizedAgainstStdSet) {
  IntervalSet set;
  std::set<std::uint64_t> ref;
  Xoshiro256 rng(77);
  for (int step = 0; step < 5000; ++step) {
    const bool can_insert = ref.size() < 2000;
    if (can_insert && (rng.below(2) == 0 || ref.empty())) {
      std::uint64_t p = rng.below(2000);
      while (ref.count(p) != 0) p = rng.below(2000);
      set.insert(p);
      ref.insert(p);
    } else {
      std::uint64_t lo = rng.below(2100);
      std::uint64_t hi = rng.below(2100);
      if (lo > hi) std::swap(lo, hi);
      std::uint64_t expected = 0;
      for (auto it = ref.lower_bound(lo);
           it != ref.end() && *it <= hi; ++it) {
        ++expected;
      }
      ASSERT_EQ(set.count_in(lo, hi), expected)
          << "[" << lo << "," << hi << "] step " << step;
    }
    if (ref.size() == 2000) break;  // key space exhausted
  }
  EXPECT_EQ(set.size(), ref.size());
  EXPECT_TRUE(set.validate());
}

TEST(IntervalAnalyzerTest, Table1Example) {
  const std::vector<Addr> trace{'d', 'a', 'c', 'b', 'c',
                                'c', 'g', 'e', 'f', 'a'};
  IntervalAnalyzer analyzer;
  std::vector<Distance> d;
  for (Addr a : trace) d.push_back(analyzer.access(a));
  EXPECT_EQ(d[4], 1u);
  EXPECT_EQ(d[5], 0u);
  EXPECT_EQ(d[9], 5u);
  EXPECT_EQ(analyzer.footprint(), 7u);
}

TEST(IntervalAnalyzerTest, MatchesOlkenOnWorkloads) {
  for (std::uint64_t seed : {2u, 9u}) {
    ZipfWorkload w(400, 0.9, seed);
    const auto trace = generate_trace(w, 6000);
    EXPECT_TRUE(interval_analysis(trace) == olken_analysis(trace)) << seed;
  }
  SequentialWorkload seq(128);
  const auto strace = generate_trace(seq, 4000);
  EXPECT_TRUE(interval_analysis(strace) == olken_analysis(strace));
}

TEST(IntervalAnalyzerTest, SequentialTraceCompressesHoles) {
  // Cyclic sweeps kill addresses in order: holes coalesce into very few
  // intervals — the compression the paper's reference [1] exploits.
  SequentialWorkload w(256);
  const auto trace = generate_trace(w, 10000);
  IntervalAnalyzer analyzer;
  for (Addr a : trace) analyzer.access(a);
  EXPECT_LE(analyzer.hole_intervals(), 4u);
  EXPECT_EQ(analyzer.footprint(), 256u);
}

}  // namespace
}  // namespace parda

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "seq/bennett_kruskal.hpp"
#include "seq/bounded.hpp"
#include "seq/naive.hpp"
#include "seq/olken.hpp"
#include "tree/avl_tree.hpp"
#include "tree/fenwick.hpp"
#include "tree/treap.hpp"
#include "tree/vector_tree.hpp"
#include "util/prng.hpp"
#include "workload/generators.hpp"
#include "workload/spec.hpp"

namespace parda {
namespace {

// The running example of the paper: Table I.
const std::vector<Addr> kTable1{'d', 'a', 'c', 'b', 'c',
                                'c', 'g', 'e', 'f', 'a'};

TEST(NaiveStackTest, EmptyTrace) {
  const Histogram h = naive_stack_analysis({});
  EXPECT_EQ(h.total(), 0u);
}

TEST(NaiveStackTest, Table1Example) {
  NaiveStackAnalyzer analyzer;
  std::vector<Distance> distances;
  for (Addr a : kTable1) distances.push_back(analyzer.access(a));
  const std::vector<Distance> expected{
      kInfiniteDistance, kInfiniteDistance, kInfiniteDistance,
      kInfiniteDistance, 1,
      0,                 kInfiniteDistance, kInfiniteDistance,
      kInfiniteDistance, 5};
  EXPECT_EQ(distances, expected);
}

TEST(NaiveStackTest, RepeatedSingleAddress) {
  NaiveStackAnalyzer analyzer;
  EXPECT_EQ(analyzer.access(7), kInfiniteDistance);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(analyzer.access(7), 0u);
  EXPECT_EQ(analyzer.footprint(), 1u);
}

template <typename Tree>
class OlkenEngineTest : public ::testing::Test {};

// OlkenAnalyzer's keys are its reference counter, a dense clock, so the
// FenwickIndex that Parda's ranks run on is one more engine here.
using Engines =
    ::testing::Types<SplayTree, AvlTree, Treap, VectorTree, FenwickIndex>;
TYPED_TEST_SUITE(OlkenEngineTest, Engines);

TYPED_TEST(OlkenEngineTest, Table1Example) {
  OlkenAnalyzer<TypeParam> analyzer;
  std::vector<Distance> distances;
  for (Addr a : kTable1) distances.push_back(analyzer.access(a));
  EXPECT_EQ(distances[4], 1u);
  EXPECT_EQ(distances[5], 0u);
  EXPECT_EQ(distances[9], 5u);  // the worked Figure 1 distance
  EXPECT_EQ(analyzer.footprint(), 7u);
  EXPECT_EQ(analyzer.time(), 10u);
}

TYPED_TEST(OlkenEngineTest, MatchesNaiveOnRandomTraces) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    UniformRandomWorkload w(64, seed);
    const auto trace = generate_trace(w, 4000);
    EXPECT_TRUE(olken_analysis<TypeParam>(trace) ==
                naive_stack_analysis(trace))
        << "seed " << seed;
  }
}

TYPED_TEST(OlkenEngineTest, MatchesNaiveOnSkewedTraces) {
  ZipfWorkload w(200, 1.0, 5);
  const auto trace = generate_trace(w, 5000);
  EXPECT_TRUE(olken_analysis<TypeParam>(trace) == naive_stack_analysis(trace));
}

TYPED_TEST(OlkenEngineTest, HistogramMassInvariants) {
  UniformRandomWorkload w(100, 9);
  const auto trace = generate_trace(w, 3000);
  const Histogram h = olken_analysis<TypeParam>(trace);
  EXPECT_EQ(h.total(), trace.size());
  // Unbounded analysis: one infinity per distinct address.
  std::vector<Addr> unique = trace;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  EXPECT_EQ(h.infinities(), unique.size());
  // No distance can reach the footprint.
  EXPECT_LT(h.max_distance(), unique.size());
}

TEST(OlkenAnalyzerTest, ResetClearsState) {
  OlkenAnalyzer<SplayTree> analyzer;
  analyzer.access(1);
  analyzer.access(2);
  analyzer.reset();
  EXPECT_EQ(analyzer.time(), 0u);
  EXPECT_EQ(analyzer.footprint(), 0u);
  EXPECT_EQ(analyzer.access(1), kInfiniteDistance);
}

TEST(OlkenAnalyzerTest, ImmediateReuseIsDistanceZero) {
  OlkenAnalyzer<SplayTree> analyzer;
  analyzer.access(42);
  EXPECT_EQ(analyzer.access(42), 0u);
  EXPECT_EQ(analyzer.access(42), 0u);
}

// --- Bounded analysis (Algorithm 7) -----------------------------------------
// The same engine with a cache bound B, typed over the same trees.

template <typename Tree>
class BoundedSemanticsTest : public ::testing::Test {};

TYPED_TEST_SUITE(BoundedSemanticsTest, Engines);

TYPED_TEST(BoundedSemanticsTest, ExactBelowBoundInfinityAtOrAbove) {
  for (const std::uint64_t seed : {1u, 2u}) {
    ZipfWorkload w(300, 0.7, seed);
    const auto trace = generate_trace(w, 6000);
    const Histogram exact = olken_analysis<TypeParam>(trace);
    for (const std::uint64_t bound : {1u, 2u, 8u, 32u, 128u, 299u, 300u,
                                      512u}) {
      SCOPED_TRACE(::testing::Message() << "B=" << bound << " seed=" << seed);
      const Histogram bounded = bounded_analysis<TypeParam>(trace, bound);
      EXPECT_EQ(bounded.total(), exact.total());
      for (Distance d = 0; d < bound; ++d) {
        EXPECT_EQ(bounded.at(d), exact.at(d)) << "d=" << d;
      }
      // No finite mass survives at or beyond the bound...
      for (Distance d = bound; d <= bounded.max_distance(); ++d) {
        EXPECT_EQ(bounded.at(d), 0u) << "d=" << d;
      }
      // ...because everything at or above the bound became an infinity.
      std::uint64_t folded = exact.infinities();
      for (Distance d = bound; d <= exact.max_distance(); ++d) {
        folded += exact.at(d);
      }
      EXPECT_EQ(bounded.infinities(), folded);
    }
  }
}

TYPED_TEST(BoundedSemanticsTest, ResidencyNeverExceedsBound) {
  OlkenAnalyzer<TypeParam> analyzer(16);
  UniformRandomWorkload w(1000, 3);
  const auto trace = generate_trace(w, 2000);
  for (Addr a : trace) {
    analyzer.process(a);
    EXPECT_LE(analyzer.footprint(), 16u);
  }
  // Every miss past the first B fills evicts exactly one LRU entry.
  const EngineStats s = analyzer.stats();
  EXPECT_EQ(s.evictions, s.infinities - 16);
  EXPECT_EQ(s.peak_footprint, 16u);
}

TYPED_TEST(BoundedSemanticsTest, BoundLargerThanFootprintIsExact) {
  UniformRandomWorkload w(50, 4);
  const auto trace = generate_trace(w, 2000);
  OlkenAnalyzer<TypeParam> analyzer(1 << 20);
  const Histogram bounded = analyze_trace(analyzer, trace);
  EXPECT_TRUE(bounded == olken_analysis<TypeParam>(trace));
  EXPECT_EQ(analyzer.stats().evictions, 0u);
  EXPECT_EQ(analyzer.stats().peak_footprint, bounded.infinities());
}

TYPED_TEST(BoundedSemanticsTest, BoundZeroIsUnbounded) {
  // kUnbounded == 0, as for --bound=0 and PardaOptions::bound.
  ZipfWorkload w(300, 0.7, 6);
  const auto trace = generate_trace(w, 3000);
  EXPECT_TRUE(bounded_analysis<TypeParam>(trace, kUnbounded) ==
              olken_analysis<TypeParam>(trace));
}

TYPED_TEST(BoundedSemanticsTest, BoundOneOnlyCountsImmediateReuse) {
  const std::vector<Addr> trace{1, 1, 2, 2, 2, 1};
  const Histogram h = bounded_analysis<TypeParam>(trace, 1);
  EXPECT_EQ(h.at(0), 3u);  // 1@1, 2@3, 2@4
  EXPECT_EQ(h.infinities(), 3u);
}

// --- Bennett & Kruskal (paper ref [2]) ---------------------------------------

TEST(BennettKruskalTest, EmptyTrace) {
  EXPECT_EQ(bennett_kruskal_analysis({}).total(), 0u);
}

TEST(BennettKruskalTest, Table1Example) {
  const Histogram h = bennett_kruskal_analysis(kTable1);
  EXPECT_EQ(h.infinities(), 7u);
  EXPECT_EQ(h.at(0), 1u);
  EXPECT_EQ(h.at(1), 1u);
  EXPECT_EQ(h.at(5), 1u);
}

TEST(BennettKruskalTest, MatchesOlkenOnRandomTraces) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    ZipfWorkload w(500, 0.9, seed);
    const auto trace = generate_trace(w, 8000);
    EXPECT_TRUE(bennett_kruskal_analysis(trace) == olken_analysis(trace))
        << seed;
  }
}

TEST(BennettKruskalTest, MatchesNaiveOnSpecProfile) {
  auto w = make_spec_workload("soplex", 400000, 3);
  const auto trace = generate_trace(*w, 3000);
  EXPECT_TRUE(bennett_kruskal_analysis(trace) ==
              naive_stack_analysis(trace));
}

}  // namespace
}  // namespace parda

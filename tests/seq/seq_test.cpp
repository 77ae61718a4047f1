#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "reference/avl_tree.hpp"
#include "reference/naive.hpp"
#include "reference/splay_tree.hpp"
#include "reference/treap.hpp"
#include "reference/tree_olken.hpp"
#include "seq/bennett_kruskal.hpp"
#include "seq/bounded.hpp"
#include "seq/olken.hpp"
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

/// `h` with every distance >= bound moved into the infinity bin: the fold
/// at B, done by hand.
Histogram fold_at(const Histogram& h, std::uint64_t bound) {
  Histogram out;
  out.record(kInfiniteDistance, h.infinities());
  for (Distance d = 0; d < h.counts().size(); ++d) {
    out.record(d < bound ? d : kInfiniteDistance, h.counts()[d]);
  }
  return out;
}

TEST(NaiveStackTest, BoundFoldsAtB) {
  ZipfWorkload w(300, 0.7, 8);
  const auto trace = generate_trace(w, 4000);
  const Histogram exact = naive_stack_analysis(trace);
  for (const std::uint64_t bound : {1u, 5u, 64u, 299u, 300u, 1000u}) {
    EXPECT_TRUE(naive_stack_analysis(trace, bound) == fold_at(exact, bound))
        << "B=" << bound;
  }
}

TEST(OlkenAnalyzerTest, Table1Example) {
  OlkenAnalyzer analyzer;
  std::vector<Distance> distances;
  for (Addr a : kTable1) distances.push_back(analyzer.access(a));
  EXPECT_EQ(distances[4], 1u);
  EXPECT_EQ(distances[5], 0u);
  EXPECT_EQ(distances[9], 5u);  // the worked Figure 1 distance
  EXPECT_EQ(analyzer.footprint(), 7u);
  EXPECT_EQ(analyzer.time(), 10u);
}

TEST(OlkenAnalyzerTest, MatchesNaiveOnRandomTraces) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    UniformRandomWorkload w(64, seed);
    const auto trace = generate_trace(w, 4000);
    EXPECT_TRUE(olken_analysis(trace) == naive_stack_analysis(trace))
        << "seed " << seed;
  }
}

TEST(OlkenAnalyzerTest, MatchesNaiveOnSkewedTraces) {
  ZipfWorkload w(200, 1.0, 5);
  const auto trace = generate_trace(w, 5000);
  EXPECT_TRUE(olken_analysis(trace) == naive_stack_analysis(trace));
}

TEST(OlkenAnalyzerTest, HistogramMassInvariants) {
  UniformRandomWorkload w(100, 9);
  const auto trace = generate_trace(w, 3000);
  const Histogram h = olken_analysis(trace);
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
  OlkenAnalyzer analyzer;
  analyzer.access(1);
  analyzer.access(2);
  analyzer.reset();
  EXPECT_EQ(analyzer.time(), 0u);
  EXPECT_EQ(analyzer.footprint(), 0u);
  EXPECT_EQ(analyzer.stack().key_span(), 0u);
  EXPECT_EQ(analyzer.access(1), kInfiniteDistance);
}

TEST(OlkenAnalyzerTest, ImmediateReuseIsDistanceZero) {
  OlkenAnalyzer analyzer;
  analyzer.access(42);
  EXPECT_EQ(analyzer.access(42), 0u);
  EXPECT_EQ(analyzer.access(42), 0u);
}

// --- The stack renumbers and stays small -------------------------------------
// Fed in uneven blocks, the analyzer's key span never exceeds
// 2 * resident + max(resident, kMinKeySlack) after any block, however long
// the trace, and the histogram stays naive's.

std::uint64_t span_limit(const OlkenAnalyzer& analyzer) {
  const std::uint64_t resident = analyzer.footprint();
  return 2 * resident +
         std::max<std::uint64_t>(resident, OlkenAnalyzer::kMinKeySlack);
}

Histogram feed_uneven_blocks(OlkenAnalyzer& analyzer,
                             std::span<const Addr> trace) {
  Xoshiro256 rng(99);
  for (std::size_t at = 0; at < trace.size();) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.below(20000), trace.size() - at);
    analyzer.process_block(trace.subspan(at, n));
    at += n;
    EXPECT_LE(analyzer.stack().key_span(), span_limit(analyzer))
        << "after " << at;
  }
  analyzer.finish();
  EXPECT_LT(analyzer.stack().key_span(), analyzer.time());  // renumbered
  return analyzer.histogram();
}

TEST(OlkenStackTest, LonelyTraceRenumbersAndStaysSmall) {
  // One cold address stays resident, and oldest, for the whole run; the
  // rest sweep 256 addresses. Keyed by reference count, the index window
  // would span the whole trace.
  std::vector<Addr> trace{~Addr{0}};
  for (std::size_t i = 0; i < (std::size_t{1} << 20); ++i) {
    trace.push_back(i % 256);
  }
  OlkenAnalyzer analyzer;
  EXPECT_TRUE(feed_uneven_blocks(analyzer, trace) ==
              naive_stack_analysis(trace));
}

TEST(OlkenStackTest, BoundedDistinctStreamRenumbersAndStaysSmall) {
  constexpr std::uint64_t kBound = 256;
  std::vector<Addr> trace;
  for (std::size_t i = 0; i < (std::size_t{1} << 20); ++i) {
    trace.push_back(0x9E3779B97F4A7C15ULL * (i + 1));
  }
  OlkenAnalyzer analyzer(kBound);
  EXPECT_TRUE(feed_uneven_blocks(analyzer, trace) ==
              naive_stack_analysis(trace, kBound));
  EXPECT_EQ(analyzer.footprint(), kBound);
}

// --- Bounded analysis (Algorithm 7) -----------------------------------------

TEST(BoundedSemanticsTest, ExactBelowBoundInfinityAtOrAbove) {
  for (const std::uint64_t seed : {1u, 2u}) {
    ZipfWorkload w(300, 0.7, seed);
    const auto trace = generate_trace(w, 6000);
    const Histogram exact = olken_analysis(trace);
    for (const std::uint64_t bound : {1u, 2u, 8u, 32u, 128u, 299u, 300u,
                                      512u}) {
      SCOPED_TRACE(::testing::Message() << "B=" << bound << " seed=" << seed);
      const Histogram bounded = bounded_analysis(trace, bound);
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

TEST(BoundedSemanticsTest, ResidencyNeverExceedsBound) {
  OlkenAnalyzer analyzer(16);
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

TEST(BoundedSemanticsTest, BoundLargerThanFootprintIsExact) {
  UniformRandomWorkload w(50, 4);
  const auto trace = generate_trace(w, 2000);
  OlkenAnalyzer analyzer(1 << 20);
  const Histogram bounded = analyze_trace(analyzer, trace);
  EXPECT_TRUE(bounded == olken_analysis(trace));
  EXPECT_EQ(analyzer.stats().evictions, 0u);
  EXPECT_EQ(analyzer.stats().peak_footprint, bounded.infinities());
}

TEST(BoundedSemanticsTest, BoundZeroIsUnbounded) {
  // kUnbounded == 0, as for --bound=0 and PardaOptions::bound.
  ZipfWorkload w(300, 0.7, 6);
  const auto trace = generate_trace(w, 3000);
  EXPECT_TRUE(bounded_analysis(trace, kUnbounded) == olken_analysis(trace));
}

TEST(BoundedSemanticsTest, BoundOneOnlyCountsImmediateReuse) {
  const std::vector<Addr> trace{1, 1, 2, 2, 2, 1};
  const Histogram h = bounded_analysis(trace, 1);
  EXPECT_EQ(h.at(0), 3u);  // 1@1, 2@3, 2@4
  EXPECT_EQ(h.infinities(), 3u);
}

// --- The paper's pointer trees ------------------------------------------------
// bench/ times Olken's algorithm on the splay tree (the paper's
// configuration), the AVL tree and the treap with tree_olken_analysis, a
// loop of olken_step keyed by trace position. Here the same loop's
// histograms are checked against naive.

template <typename Tree>
class PointerTreeOlkenTest : public ::testing::Test {};

using PointerTrees = ::testing::Types<SplayTree, AvlTree, Treap>;
TYPED_TEST_SUITE(PointerTreeOlkenTest, PointerTrees);

TYPED_TEST(PointerTreeOlkenTest, MatchesNaive) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    ZipfWorkload w(400, 0.8, seed);
    const auto trace = generate_trace(w, 6000);
    const std::uint64_t bounds[] = {kUnbounded, 1, 17, 128};
    for (const std::uint64_t bound : bounds) {
      EXPECT_TRUE(tree_olken_analysis<TypeParam>(trace, bound) ==
                  naive_stack_analysis(trace, bound))
          << "seed " << seed << " B=" << bound;
    }
  }
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

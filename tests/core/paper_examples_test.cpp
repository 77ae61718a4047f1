// Reproduces every worked example in the paper:
//   Table I    — reuse distances of the running 10-reference trace
//   Figure 1   — tree state around processing reference 'a' at time 9
//   Table II   — two-processor local vs global distances (13 references)
//   Table III + Figure 2 — three-processor space-optimized run: per-rank
//                trees, local-infinity lists, and counters, step by step.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/parda.hpp"
#include "core/rank_state.hpp"
#include "hash/addr_map.hpp"
#include "reference/splay_tree.hpp"
#include "seq/olken.hpp"

namespace parda {
namespace {

std::vector<Addr> to_trace(const char* letters) {
  std::vector<Addr> trace;
  for (const char* p = letters; *p != '\0'; ++p) {
    if (*p == ' ') continue;
    trace.push_back(static_cast<Addr>(*p));
  }
  return trace;
}

// Table I: d a c b c c g e f a.
const char* const kTable1 = "d a c b c c g e f a";
// Table II: Table I extended with f b c.
const char* const kTable2 = "d a c b c c g e f a f b c";
// Table III: the 24-reference three-processor example.
const char* const kTable3 = "d a c b c c g e f a f b c m t m a c f b d c a c";

std::vector<TreeEntry> tree_contents(const SplayTree& tree) {
  std::vector<TreeEntry> entries;
  tree.for_each([&](TreeEntry e) { entries.push_back(e); });
  return entries;
}

TEST(PaperTable1, DistancesMatchPaper) {
  OlkenAnalyzer analyzer;
  std::vector<Distance> d;
  for (Addr a : to_trace(kTable1)) d.push_back(analyzer.access(a));
  // Times 0-9: d a c b c c g e f a.
  EXPECT_EQ(d[0], kInfiniteDistance);
  EXPECT_EQ(d[1], kInfiniteDistance);
  EXPECT_EQ(d[2], kInfiniteDistance);
  EXPECT_EQ(d[3], kInfiniteDistance);
  EXPECT_EQ(d[4], 1u);  // D_c(4) = |Psi_3^3| = 1 (Section II example)
  EXPECT_EQ(d[5], 0u);
  EXPECT_EQ(d[6], kInfiniteDistance);
  EXPECT_EQ(d[7], kInfiniteDistance);
  EXPECT_EQ(d[8], kInfiniteDistance);
  EXPECT_EQ(d[9], 5u);  // the Figure 1 walk: 1 + 3 + 1 = 5
}

TEST(PaperFigure1, TreeStateBeforeAndAfterTime9) {
  // The paper's tree keyed by timestamp: olken_step on a splay tree.
  SplayTree tree;
  AddrMap table;
  const auto trace = to_trace(kTable1);
  for (std::size_t t = 0; t + 1 < trace.size(); ++t) {
    olken_step(tree, table, trace[t], t, kUnbounded);
  }
  // Figure 1(a): before processing 'a'@9 the tree holds one entry per
  // distinct address, keyed by last access: 0:d 1:a 3:b 5:c 6:g 7:e 8:f.
  const auto before = tree_contents(tree);
  const std::vector<TreeEntry> expected_before{
      {0, 'd'}, {1, 'a'}, {3, 'b'}, {5, 'c'}, {6, 'g'}, {7, 'e'}, {8, 'f'}};
  EXPECT_EQ(before, expected_before);

  EXPECT_EQ(olken_step(tree, table, 'a', 9, kUnbounded).distance, 5u);

  // Figure 1(b): 'a' moved from timestamp 1 to timestamp 9.
  const auto after = tree_contents(tree);
  const std::vector<TreeEntry> expected_after{
      {0, 'd'}, {3, 'b'}, {5, 'c'}, {6, 'g'}, {7, 'e'}, {8, 'f'}, {9, 'a'}};
  EXPECT_EQ(after, expected_after);
}

TEST(PaperTable2, LocalDistancesOfRightChunk) {
  // The right chunk (g e f a f b c, times 6-12) analyzed in isolation:
  // local distances: inf inf inf inf 1 inf inf (Table II row "Local").
  RankState rank1;
  const auto trace = to_trace(kTable2);
  for (std::size_t t = 6; t < trace.size(); ++t) rank1.process_own(trace[t]);
  EXPECT_EQ(rank1.hist().at(1), 1u);        // f@10
  EXPECT_EQ(rank1.hist().finite_total(), 1u);
  // Local infinities: g e f a b c, in the order of their first references.
  EXPECT_EQ(rank1.take_local_infinities(), to_trace("g e f a b c"));
}

TEST(PaperTable2, GlobalDistancesMatchPaper) {
  // Global row of Table II: inf inf inf inf 1 0 inf inf inf 5 1 5 5.
  const auto trace = to_trace(kTable2);
  const Histogram expected_seq = olken_analysis(trace);
  EXPECT_EQ(expected_seq.infinities(), 7u);
  EXPECT_EQ(expected_seq.at(0), 1u);
  EXPECT_EQ(expected_seq.at(1), 2u);
  EXPECT_EQ(expected_seq.at(5), 3u);

  PardaOptions options;
  options.num_procs = 2;
  EXPECT_TRUE(parda_analyze(trace, options).hist == expected_seq);
}

TEST(PaperTable3Figure2, ThreeProcessorSpaceOptimizedWalkthrough) {
  const auto trace = to_trace(kTable3);
  ASSERT_EQ(trace.size(), 24u);

  // Drive the three rank states by hand, playing the messages of
  // Algorithm 3 + 4 exactly as Figure 2 does.
  RankState p0;
  RankState p1;
  RankState p2;
  for (std::size_t t = 0; t < 8; ++t) p0.process_own(trace[t]);
  for (std::size_t t = 8; t < 16; ++t) p1.process_own(trace[t]);
  for (std::size_t t = 16; t < 24; ++t) p2.process_own(trace[t]);

  // Figure 2(a-c): per-rank local infinities after chunk processing, in
  // the order of their first references (d@0 a@1 c@2 b@3 g@6 e@7; f@8 a@9
  // b@11 c@12 m@13 t@14; a@16 c@17 f@18 b@19 d@20). p0 keeps its queue:
  // rank 0 flushes rather than sends.
  const auto inf1 = p1.take_local_infinities();
  const auto inf2 = p2.take_local_infinities();
  EXPECT_EQ(p0.local_infinities(), to_trace("d a c b g e"));
  EXPECT_EQ(inf1, to_trace("f a b c m t"));
  EXPECT_EQ(inf2, to_trace("a c f b d"));
  // Intra-chunk hits: p0 sees c@4 (1) and c@5 (0); p1 sees f@10 (1) and
  // m@15 (1); p2 sees c@21 (3), a@22 (4), c@23 (1).
  EXPECT_EQ(p0.hist().at(1), 1u);
  EXPECT_EQ(p0.hist().at(0), 1u);
  EXPECT_EQ(p1.hist().at(1), 2u);
  EXPECT_EQ(p2.hist().at(3), 1u);
  EXPECT_EQ(p2.hist().at(4), 1u);
  EXPECT_EQ(p2.hist().at(1), 1u);

  // Round 1: p0 counts its own infinities as global; p1 processes p2's.
  p0.flush_global_infinities();
  EXPECT_EQ(p0.hist().infinities(), 6u);
  p1.process_incoming(inf2);
  // Figure 2(e): p1 retains only t@14, m@15; forwards 'd'; count = 5.
  EXPECT_EQ(p1.received_count(), 5u);
  EXPECT_EQ(p1.resident(), 2u);
  EXPECT_EQ(p1.resident_addrs(), to_trace("t m"));
  const auto fwd1 = p1.take_local_infinities();
  EXPECT_EQ(fwd1, to_trace("d"));
  // Distances resolved at p1: a@16 -> 5, c@17 -> 3, f@18 -> 5, b@19 -> 5.
  EXPECT_EQ(p1.hist().at(5), 3u);
  EXPECT_EQ(p1.hist().at(3), 1u);

  // p0 processes p1's first-round infinities.
  p0.process_incoming(inf1);
  // Figure 2(d): p0 keeps d@0, g@6, e@7; forwards f, m, t; count = 6.
  EXPECT_EQ(p0.received_count(), 6u);
  EXPECT_EQ(p0.resident_addrs(), to_trace("d g e"));
  // Distances resolved at p0 so far: a@9 -> 5, b@11 -> 5, c@12 -> 5.
  EXPECT_EQ(p0.hist().at(5), 3u);

  // Round 2 at p0: flush f, m, t as global infinities, then process 'd'.
  p0.flush_global_infinities();
  EXPECT_EQ(p0.hist().infinities(), 9u);
  p0.process_incoming(fwd1);
  // Figure 2(f): only g@6, e@7 remain; count = 7; d@20 resolved at 8.
  EXPECT_EQ(p0.received_count(), 7u);
  EXPECT_EQ(p0.hist().at(8), 1u);
  EXPECT_EQ(p0.resident_addrs(), to_trace("g e"));
  p0.flush_global_infinities();

  // The aggregate space property (Section IV-C): every distinct address
  // survives on exactly one rank.
  EXPECT_EQ(p0.resident() + p1.resident() + p2.resident(),
            2u + 2u + 5u);

  // Merge the three histograms: must equal the sequential analysis.
  Histogram merged = p0.hist();
  merged.merge(p1.hist());
  merged.merge(p2.hist());
  EXPECT_TRUE(merged == olken_analysis(trace));
  EXPECT_EQ(merged.total(), 24u);
  EXPECT_EQ(merged.infinities(), 9u);

  // And the full comm-driven run agrees too.
  PardaOptions options;
  options.num_procs = 3;
  EXPECT_TRUE(parda_analyze(trace, options).hist == merged);
}

TEST(PaperSection2, FormalismExamples) {
  // |Psi_1^5| = |<a, c, b, c, c>| = 3 distinct elements.
  const auto trace = to_trace(kTable1);
  std::vector<Addr> window(trace.begin() + 1, trace.begin() + 6);
  std::sort(window.begin(), window.end());
  window.erase(std::unique(window.begin(), window.end()), window.end());
  EXPECT_EQ(window.size(), 3u);
  // Max_c(Psi_1^5) = 5 and D_c(4) uses R_c = {2, 4, 5}.
  std::vector<std::size_t> r_c;
  for (std::size_t i = 1; i <= 5; ++i) {
    if (trace[i] == static_cast<Addr>('c')) r_c.push_back(i);
  }
  EXPECT_EQ(r_c, (std::vector<std::size_t>{2, 4, 5}));
}

}  // namespace
}  // namespace parda

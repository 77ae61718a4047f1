// Tests for OPT (Belady) stack distance analysis (Mattson [12]).
#include <gtest/gtest.h>

#include <vector>

#include "cachesim/lru_cache.hpp"
#include "seq/olken.hpp"
#include "seq/opt.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

TEST(OptDistanceTest, EmptyAndSingleton) {
  EXPECT_TRUE(opt_distances({}).empty());
  const auto d = opt_distances(std::vector<Addr>{42});
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], kInfiniteDistance);
}

TEST(OptDistanceTest, ImmediateReuseIsZero) {
  const auto d = opt_distances(std::vector<Addr>{1, 1, 1});
  EXPECT_EQ(d[1], 0u);
  EXPECT_EQ(d[2], 0u);
}

TEST(OptDistanceTest, KnownSmallExample) {
  // Trace: a b c a. With OPT, at time 3 'a' should be near the top of the
  // stack because b and c are never referenced again: OPT distance of the
  // final 'a' is 0 (an OPT cache of size 1 keeps 'a' after time 0? No —
  // size-1 caches always hold the last reference, so the final 'a' misses
  // at C=1 but hits at C=2: distance 1).
  const auto d = opt_distances(std::vector<Addr>{'a', 'b', 'c', 'a'});
  EXPECT_EQ(d[3], 1u);
  // LRU would need C=3 (distance 2) for the same reuse.
  OlkenAnalyzer lru;
  lru.access('a');
  lru.access('b');
  lru.access('c');
  EXPECT_EQ(lru.access('a'), 2u);
}

TEST(OptDistanceTest, InfinitiesMatchFootprint) {
  ZipfWorkload w(200, 0.9, 3);
  const auto trace = generate_trace(w, 5000);
  const Histogram opt = opt_distance_analysis(trace);
  const Histogram lru = olken_analysis(trace);
  EXPECT_EQ(opt.infinities(), lru.infinities());
  EXPECT_EQ(opt.total(), lru.total());
}

TEST(OptDistanceTest, StackDistanceMatchesBeladySimulator) {
  // The Mattson property for OPT: hits(C) == #refs with distance < C.
  for (std::uint64_t seed : {1u, 2u}) {
    ZipfWorkload w(150, 0.8, seed);
    const auto trace = generate_trace(w, 4000);
    const Histogram hist = opt_distance_analysis(trace);
    for (std::uint64_t c : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
      OptCacheSim sim(c, trace);
      EXPECT_EQ(sim.run(), hist.hits_below(c))
          << "C=" << c << " seed=" << seed;
    }
  }
}

TEST(OptDistanceTest, OptNeverWorseThanLruAtAnyCacheSize) {
  // Belady optimality, via both stacks' histograms.
  std::vector<std::unique_ptr<Workload>> kids;
  kids.push_back(std::make_unique<ZipfWorkload>(300, 0.9, 7, 0));
  kids.push_back(std::make_unique<SequentialWorkload>(100, 1));
  MixWorkload mix(std::move(kids), {0.5, 0.5}, 9);
  const auto trace = generate_trace(mix, 8000);

  const Histogram opt = opt_distance_analysis(trace);
  const Histogram lru = olken_analysis(trace);
  for (std::uint64_t c = 1; c <= 512; c *= 2) {
    EXPECT_GE(opt.hits_below(c), lru.hits_below(c)) << "C=" << c;
  }
}

TEST(OptDistanceTest, CyclicSweepShowsOptAdvantage) {
  // The classic case: a cyclic sweep over M > C addresses gives LRU zero
  // hits but OPT keeps C-1 of them resident.
  SequentialWorkload w(64);
  const auto trace = generate_trace(w, 64 * 20);
  const Histogram opt = opt_distance_analysis(trace);
  const Histogram lru = olken_analysis(trace);
  const std::uint64_t c = 16;
  EXPECT_EQ(lru.hits_below(c), 0u);  // LRU thrashes
  OptCacheSim sim(c, trace);
  const std::uint64_t opt_hits = sim.run();
  EXPECT_EQ(opt.hits_below(c), opt_hits);
  // OPT retains c-1 lines across each lap after the first.
  EXPECT_GE(opt_hits, (20u - 1) * (c - 1));
}

TEST(OptCacheSimTest, CountsAddUp) {
  UniformRandomWorkload w(100, 5);
  const auto trace = generate_trace(w, 2000);
  OptCacheSim sim(32, trace);
  sim.run();
  EXPECT_EQ(sim.hits() + sim.misses(), trace.size());
  // OPT with capacity >= footprint only takes compulsory misses.
  OptCacheSim big(4096, trace);
  big.run();
  EXPECT_EQ(big.misses(), olken_analysis(trace).infinities());
}

}  // namespace
}  // namespace parda

// LruChainAnalyzer property tests: the log2 histogram must be bit-identical
// to bucketing an exact engine's output, on every trace family we can throw
// at it — including keys crafted (by inverting mix64) to pile into the same
// AddrMap bucket and stress the robin-hood probe chains.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "reference/interval_analyzer.hpp"
#include "reference/naive.hpp"
#include "seq/bennett_kruskal.hpp"
#include "seq/bounded.hpp"
#include "seq/lru_chain.hpp"
#include "seq/olken.hpp"
#include "util/prng.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

const std::vector<Addr> kTable1{'d', 'a', 'c', 'b', 'c',
                                'c', 'g', 'e', 'f', 'a'};

std::vector<std::uint64_t> olken_log2(std::span<const Addr> trace) {
  return olken_analysis(trace).log2_buckets();
}

/// Triangle-wave sweep over K addresses: 0..K-1, K-2..0, 1..K-1, ... —
/// produces reuse distances at every scale up to 2K.
std::vector<Addr> sawtooth_trace(std::uint64_t k, std::size_t n) {
  std::vector<Addr> trace;
  trace.reserve(n);
  std::uint64_t pos = 0;
  std::int64_t dir = 1;
  for (std::size_t i = 0; i < n; ++i) {
    trace.push_back(pos);
    if (pos == k - 1 && dir == 1) dir = -1;
    if (pos == 0 && dir == -1) dir = 1;
    pos = static_cast<std::uint64_t>(static_cast<std::int64_t>(pos) + dir);
  }
  return trace;
}

/// Inverse of mix64 (one splitmix64 round): undo the xorshift-multiply
/// finalizer, then subtract the golden-ratio increment. Lets the test pick
/// hash *outputs* and derive the keys that produce them.
std::uint64_t unmix64(std::uint64_t h) {
  h ^= (h >> 31) ^ (h >> 62);
  h *= 0x319642b2d24d8ec3ULL;  // modular inverse of 0x94d049bb133111eb
  h ^= (h >> 27) ^ (h >> 54);
  h *= 0x96de1b173f119089ULL;  // modular inverse of 0xbf58476d1ce4e5b9
  h ^= (h >> 30) ^ (h >> 60);
  return h - 0x9e3779b97f4a7c15ULL;
}

/// Keys whose mix64 values all share the same low 20 bits, so every one of
/// them lands in the same AddrMap bucket until the table outgrows 2^20
/// slots — worst-case robin-hood probe chains.
std::vector<Addr> adversarial_keys(std::size_t count) {
  std::vector<Addr> keys;
  keys.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint64_t hash = (static_cast<std::uint64_t>(j) << 20) | 0x5aULL;
    keys.push_back(unmix64(hash));
  }
  return keys;
}

TEST(LruChainTest, UnmixInvertsMix) {
  for (std::uint64_t h : {0ULL, 1ULL, 0x5aULL, 0xdeadbeefULL,
                          0xffffffffffffffffULL, (7ULL << 20) | 0x5aULL}) {
    EXPECT_EQ(mix64(unmix64(h)), h);
  }
}

TEST(LruChainTest, EmptyTrace) {
  const Histogram h = lru_chain_analysis({});
  EXPECT_EQ(h.total(), 0u);
}

TEST(LruChainTest, Table1Buckets) {
  LruChainAnalyzer analyzer;
  const Histogram h = analyze_trace(analyzer, kTable1);
  EXPECT_EQ(h.log2_buckets(), olken_log2(kTable1));
  EXPECT_EQ(h.infinities(), 7u);
  EXPECT_EQ(h.total(), kTable1.size());
  std::string why;
  EXPECT_TRUE(analyzer.check_invariants(&why)) << why;
}

TEST(LruChainTest, AccessReturnsBucketFloor) {
  LruChainAnalyzer a;
  EXPECT_EQ(a.access(1), kInfiniteDistance);
  EXPECT_EQ(a.access(1), 0u);  // distance 0 -> bucket 0, floor 0
  EXPECT_EQ(a.access(2), kInfiniteDistance);
  EXPECT_EQ(a.access(1), 1u);  // distance 1 -> bucket 1, floor 1
  EXPECT_EQ(a.access(3), kInfiniteDistance);
  EXPECT_EQ(a.access(4), kInfiniteDistance);
  EXPECT_EQ(a.access(1), 2u);  // distance 3 -> bucket 2, floor 2
  EXPECT_EQ(a.access(2), 2u);  // distance 3 -> bucket 2, floor 2
}

TEST(LruChainTest, RepeatedSingleAddress) {
  LruChainAnalyzer a;
  for (int i = 0; i < 100; ++i) a.process(42);
  a.finish();
  EXPECT_EQ(a.footprint(), 1u);
  EXPECT_EQ(a.histogram().at(0), 99u);
  EXPECT_EQ(a.histogram().infinities(), 1u);
  EXPECT_EQ(a.marker_hop_count(), 0u);  // chain never exceeds one node
  std::string why;
  EXPECT_TRUE(a.check_invariants(&why)) << why;
}

TEST(LruChainTest, SequentialSweepAllInfinite) {
  SequentialWorkload w(1 << 12);
  const auto trace = generate_trace(w, 1 << 12);
  LruChainAnalyzer a;
  const Histogram h = analyze_trace(a, trace);
  EXPECT_EQ(h.infinities(), trace.size());
  EXPECT_EQ(h.finite_total(), 0u);
  std::string why;
  EXPECT_TRUE(a.check_invariants(&why)) << why;
}

TEST(LruChainTest, MatchesBucketedOlkenOnRandomTraces) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    UniformRandomWorkload w(257, seed);
    const auto trace = generate_trace(w, 6000);
    LruChainAnalyzer a;
    const Histogram h = analyze_trace(a, trace);
    EXPECT_EQ(h.log2_buckets(), olken_log2(trace)) << "seed " << seed;
    EXPECT_EQ(h.infinities(), olken_analysis(trace).infinities());
    std::string why;
    EXPECT_TRUE(a.check_invariants(&why)) << "seed " << seed << ": " << why;
  }
}

TEST(LruChainTest, MatchesBucketedOlkenOnSkewedTraces) {
  ZipfWorkload w(500, 1.0, 11);
  const auto trace = generate_trace(w, 8000);
  LruChainAnalyzer a;
  EXPECT_EQ(analyze_trace(a, trace).log2_buckets(), olken_log2(trace));
}

TEST(LruChainTest, MatchesBucketedOlkenOnSawtoothTraces) {
  for (std::uint64_t k : {2u, 3u, 17u, 256u, 1000u}) {
    const auto trace = sawtooth_trace(k, 6000);
    LruChainAnalyzer a;
    const Histogram h = analyze_trace(a, trace);
    EXPECT_EQ(h.log2_buckets(), olken_log2(trace)) << "k " << k;
    std::string why;
    EXPECT_TRUE(a.check_invariants(&why)) << "k " << k << ": " << why;
  }
}

TEST(LruChainTest, MatchesBucketedOlkenOnAdversarialProbeChains) {
  // 2^12 keys that all hash into the same AddrMap bucket, referenced in a
  // shuffled repeating pattern: the hash table sees worst-case probe
  // chains while the chain sees distances at every scale.
  const auto keys = adversarial_keys(1 << 12);
  Xoshiro256 rng(99);
  std::vector<Addr> trace;
  trace.reserve(20000);
  for (std::size_t i = 0; i < 20000; ++i) {
    // Power-law-ish index so short and long reuses both occur.
    const std::size_t span = std::size_t{1} << rng.below(13);
    trace.push_back(keys[rng.below(span)]);
  }
  LruChainAnalyzer a;
  const Histogram h = analyze_trace(a, trace);
  EXPECT_EQ(h.log2_buckets(), olken_log2(trace));
  std::string why;
  EXPECT_TRUE(a.check_invariants(&why)) << why;
  EXPECT_GT(a.stats().hash_probes, 0u);
}

TEST(LruChainTest, BoundedMatchesBoundedTreeEngine) {
  for (std::uint64_t bound : {1u, 2u, 7u, 64u, 100u}) {
    UniformRandomWorkload w(300, bound + 5);
    const auto trace = generate_trace(w, 6000);
    LruChainAnalyzer a(bound);
    const Histogram mine = analyze_trace(a, trace);
    const Histogram exact = bounded_analysis(trace, bound);
    EXPECT_EQ(mine.log2_buckets(), exact.log2_buckets()) << "bound " << bound;
    EXPECT_EQ(mine.infinities(), exact.infinities()) << "bound " << bound;
    std::string why;
    EXPECT_TRUE(a.check_invariants(&why)) << "bound " << bound << ": " << why;
  }
}

TEST(LruChainTest, FreeListRecyclesUnderBound) {
  const std::uint64_t kBound = 64;
  UniformRandomWorkload w(4096, 7);  // footprint far above the bound
  const auto trace = generate_trace(w, 50000);
  LruChainAnalyzer a(kBound);
  analyze_trace(a, trace);
  // Steady-state bounded operation allocates exactly `bound` arena slots:
  // every eviction's node is recycled for the next miss.
  EXPECT_EQ(a.allocated_nodes(), kBound);
  EXPECT_EQ(a.footprint(), kBound);
  EXPECT_EQ(a.free_nodes(), 0u);
  EXPECT_GT(a.eviction_count(), 0u);
  EXPECT_EQ(a.stats().peak_footprint, kBound);
  std::string why;
  EXPECT_TRUE(a.check_invariants(&why)) << why;
}

TEST(LruChainTest, UnboundedPeakEqualsFootprint) {
  UniformRandomWorkload w(777, 3);
  const auto trace = generate_trace(w, 20000);
  LruChainAnalyzer a;
  analyze_trace(a, trace);
  EXPECT_EQ(a.stats().peak_footprint, a.footprint());
  EXPECT_EQ(a.allocated_nodes(), a.footprint());
  EXPECT_EQ(a.free_nodes(), 0u);
  EXPECT_EQ(a.eviction_count(), 0u);
}

TEST(LruChainTest, ProcessBlockEqualsPerReferenceLoop) {
  ZipfWorkload w(400, 0.8, 21);
  const auto trace = generate_trace(w, 10000);
  LruChainAnalyzer batched;
  batched.process_block(trace);
  batched.finish();
  LruChainAnalyzer looped;
  for (Addr z : trace) looped.process(z);
  looped.finish();
  EXPECT_TRUE(batched.histogram() == looped.histogram());
  const EngineStats a = batched.stats();
  const EngineStats b = looped.stats();
  EXPECT_EQ(a.references, b.references);
  EXPECT_EQ(a.finite, b.finite);
  EXPECT_EQ(a.infinities, b.infinities);
  EXPECT_EQ(a.hash_probes, b.hash_probes);  // prefetch must not count
  EXPECT_EQ(a.marker_hops, b.marker_hops);
  EXPECT_EQ(a.peak_footprint, b.peak_footprint);
}

/// Runs `trace` through two Olken analyzers under `bound`, one as a single
/// block and one reference at a time, and checks that both renumbered
/// their keys at the same points: same histogram, same stats (renumbering
/// probes the hash table once per live key), same key span.
void expect_olken_block_equals_loop(std::span<const Addr> trace,
                                    std::uint64_t bound) {
  OlkenAnalyzer batched(bound);
  batched.process_block(trace);
  batched.finish();
  OlkenAnalyzer looped(bound);
  for (Addr z : trace) looped.process(z);
  looped.finish();
  // Both renumbered: keyed by reference count, the span would be time().
  EXPECT_LT(batched.stack().key_span(), batched.time());
  EXPECT_LT(looped.stack().key_span(), looped.time());
  EXPECT_EQ(batched.stack().key_span(), looped.stack().key_span());
  EXPECT_TRUE(batched.histogram() == looped.histogram());
  const EngineStats a = batched.stats();
  const EngineStats b = looped.stats();
  EXPECT_EQ(a.references, b.references);
  EXPECT_EQ(a.finite, b.finite);
  EXPECT_EQ(a.infinities, b.infinities);
  EXPECT_EQ(a.hash_probes, b.hash_probes);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.peak_footprint, b.peak_footprint);
}

TEST(LruChainTest, OlkenProcessBlockEqualsPerReferenceLoop) {
  UniformRandomWorkload w(512, 17);
  expect_olken_block_equals_loop(generate_trace(w, 40000), kUnbounded);
}

TEST(LruChainTest, BennettKruskalProcessBlockEqualsPerReferenceLoop) {
  UniformRandomWorkload w(512, 31);
  const auto trace = generate_trace(w, 8000);
  BennettKruskalAnalyzer batched;
  batched.process_block(std::span<const Addr>(trace).first(5000));
  batched.process_block(std::span<const Addr>(trace).subspan(5000));
  batched.finish();
  BennettKruskalAnalyzer looped;
  for (Addr z : trace) looped.process(z);
  looped.finish();
  EXPECT_TRUE(batched.histogram() == looped.histogram());
  EXPECT_EQ(batched.stats().hash_probes, looped.stats().hash_probes);
}

TEST(LruChainTest, IntervalProcessBlockEqualsPerReferenceLoop) {
  UniformRandomWorkload w(512, 23);
  const auto trace = generate_trace(w, 8000);
  IntervalAnalyzer batched;
  batched.process_block(trace);
  batched.finish();
  IntervalAnalyzer looped;
  for (Addr z : trace) looped.process(z);
  looped.finish();
  EXPECT_TRUE(batched.histogram() == looped.histogram());
  EXPECT_EQ(batched.stats().hash_probes, looped.stats().hash_probes);
}

TEST(LruChainTest, BoundedProcessBlockEqualsPerReferenceLoop) {
  UniformRandomWorkload w(512, 29);
  expect_olken_block_equals_loop(generate_trace(w, 40000), 32);
}

TEST(LruChainTest, StatsAndMarkerHops) {
  UniformRandomWorkload w(100, 5);
  const auto trace = generate_trace(w, 5000);
  LruChainAnalyzer a;
  analyze_trace(a, trace);
  const EngineStats s = a.stats();
  EXPECT_EQ(s.references, trace.size());
  EXPECT_EQ(s.finite + s.infinities, s.references);
  EXPECT_GT(s.marker_hops, 0u);
  EXPECT_EQ(s.marker_hops, a.marker_hop_count());
}

TEST(LruChainTest, FinishIsIdempotent) {
  LruChainAnalyzer a;
  for (Addr z : kTable1) a.process(z);
  a.finish();
  const std::uint64_t total = a.histogram().total();
  a.finish();
  EXPECT_EQ(a.histogram().total(), total);
}

TEST(LruChainTest, ResetClearsEverything) {
  UniformRandomWorkload w(64, 9);
  const auto trace = generate_trace(w, 2000);
  LruChainAnalyzer a(16);
  analyze_trace(a, trace);
  a.reset();
  EXPECT_EQ(a.footprint(), 0u);
  EXPECT_EQ(a.time(), 0u);
  EXPECT_EQ(a.free_nodes(), 0u);
  EXPECT_EQ(a.eviction_count(), 0u);
  EXPECT_EQ(a.histogram().total(), 0u);
  std::string why;
  EXPECT_TRUE(a.check_invariants(&why)) << why;
  // And it is reusable: same trace, same answer.
  const Histogram again = analyze_trace(a, trace);
  LruChainAnalyzer fresh(16);
  EXPECT_TRUE(again == analyze_trace(fresh, trace));
}

TEST(LruChainTest, InvariantsHoldMidTrace) {
  // Audit the structure at many points during a bounded churny trace.
  ZipfWorkload w(200, 0.9, 31);
  const auto trace = generate_trace(w, 4000);
  LruChainAnalyzer a(37);  // non-power-of-two bound crosses marker edges
  std::string why;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    a.process(trace[i]);
    if (i % 251 == 0) {
      ASSERT_TRUE(a.check_invariants(&why)) << "ref " << i << ": " << why;
    }
  }
}

}  // namespace
}  // namespace parda

#include "seq/fixed_size_sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/parda.hpp"
#include "hist/mrc.hpp"
#include "seq/analyzer.hpp"
#include "seq/olken.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

std::vector<Addr> zipf_trace(std::uint64_t refs, std::uint64_t footprint,
                             std::uint64_t seed) {
  ZipfWorkload w(footprint, 0.9, seed);
  return generate_trace(w, refs);
}

TEST(FixedSizeSamplerTest, FullRateLargeBudgetMatchesExactBoundedEngine) {
  // With rate 1.0 and a budget no footprint reaches, every reference is
  // sampled at scale 1: the histogram must equal the bounded engine's.
  const auto trace = zipf_trace(20000, 300, 1);
  FixedSizeSampler sampler(/*max_tracked=*/4096);
  OlkenAnalyzer exact(4096);
  const Histogram sampled = analyze_trace(sampler, trace);
  const Histogram reference = analyze_trace(exact, trace);
  EXPECT_TRUE(sampled == reference);
}

TEST(FixedSizeSamplerTest, TrackedSetNeverExceedsBudget) {
  constexpr std::size_t kBudget = 128;
  FixedSizeSampler sampler(kBudget, /*distance_cap=*/1 << 16);
  // Ever-growing footprint: every address distinct.
  for (Addr a = 0; a < 200000; ++a) sampler.process(a * 64);
  EXPECT_LE(sampler.tracked(), kBudget);
  EXPECT_GT(sampler.budget_evictions(), 0u);
  // The adaptive threshold must have decayed the rate below 1.
  EXPECT_LT(sampler.rate(), 1.0);
  sampler.finish();
  EXPECT_EQ(sampler.references_seen(), 200000u);
}

TEST(FixedSizeSamplerTest, FootprintStaysBoundedOnUnboundedStream) {
  constexpr std::size_t kBudget = 256;
  constexpr std::uint64_t kCap = 4096;
  FixedSizeSampler sampler(kBudget, kCap);
  std::uint64_t peak = 0;
  for (Addr a = 0; a < 500000; ++a) {
    sampler.process(a * 8);
    if ((a & 0xFFF) == 0) peak = std::max(peak, sampler.footprint_bytes());
  }
  peak = std::max(peak, sampler.footprint_bytes());
  // O(budget + cap): generous constant, but far below the ~500k-entry
  // state an exact analyzer would need.
  EXPECT_LT(peak, (kBudget * 256 + kCap * 8) * 4);
}

TEST(FixedSizeSamplerTest, FootprintCountsTheExactStacksArrays) {
  // At rate 1.0 without a budget the exact engine sees every reference, so
  // a twin OlkenAnalyzer holds the same stack. A lonely oldest address
  // keeps the stack's index window several times its resident count.
  std::vector<Addr> trace{~Addr{0}};
  for (std::size_t i = 0; i < 100000; ++i) trace.push_back(i % 256);
  FixedSizeSampler sampler;
  OlkenAnalyzer twin;
  sampler.process_block(trace);
  twin.process_block(trace);
  EXPECT_EQ(sampler.stats().hash_probes, twin.stats().hash_probes);
  EXPECT_GE(sampler.footprint_bytes(), twin.stack().bytes());
}

TEST(FixedSizeSamplerTest, MissRatioAccuracyOnZipf) {
  const auto trace = zipf_trace(200000, 20000, 7);
  OlkenAnalyzer exact(1 << 16);
  const Histogram reference = analyze_trace(exact, trace);
  FixedSizeSampler sampler(/*max_tracked=*/256, /*distance_cap=*/1 << 16);
  const Histogram approx = analyze_trace(sampler, trace);

  // SHARDS at a 256-entry budget: mean absolute miss-ratio error across
  // power-of-two cache sizes must stay small (the paper reports < 0.01 at
  // 8K samples; 0.05 leaves margin for the tiny budget).
  double err = 0.0;
  int points = 0;
  for (std::uint64_t c = 1; c <= 16384; c *= 2) {
    err += std::abs(miss_ratio(approx, c) - miss_ratio(reference, c));
    ++points;
  }
  EXPECT_LT(err / points, 0.05) << "mean abs MRC error too high";
}

TEST(FixedSizeSamplerTest, WindowTakeKeepsSamplingState) {
  FixedSizeSampler sampler(1024);
  const auto trace = zipf_trace(4000, 200, 3);
  sampler.process_block(trace);
  const Histogram first = sampler.take_window_histogram();
  EXPECT_GT(first.total(), 0u);
  EXPECT_EQ(sampler.histogram().total(), 0u);

  // Same addresses again: the recency stack survived the take, so reuse
  // distances stay finite instead of re-registering as cold misses.
  sampler.process_block(trace);
  const Histogram second = sampler.take_window_histogram();
  EXPECT_GT(second.finite_total(), 0u);
  EXPECT_EQ(second.infinities(), 0u);
}

TEST(FixedSizeSamplerTest, DistanceCapSendsDeepReusesToInfinity) {
  constexpr std::uint64_t kCap = 64;
  FixedSizeSampler sampler(8192, kCap);
  // Cyclic sweep over 1000 addresses: every reuse distance is 999, far
  // over the cap, so after the cold pass everything lands in infinity.
  for (int round = 0; round < 3; ++round) {
    for (Addr a = 0; a < 1000; ++a) sampler.process(a);
  }
  sampler.finish();
  EXPECT_EQ(sampler.histogram().finite_total(), 0u);
  EXPECT_EQ(sampler.histogram().infinities(), 3000u);
}

TEST(FixedSizeSamplerTest, ScaledCountsApproximateTotalReferences) {
  // Distances are recorded with weight ~1/R: the histogram mass must stay
  // in the same ballpark as the true reference count even after the rate
  // decays (SHARDS_adj closes the per-window gap).
  const auto trace = zipf_trace(100000, 30000, 11);
  FixedSizeSampler sampler(512, 1 << 16);
  sampler.process_block(trace);
  const Histogram h = sampler.take_window_histogram();
  const double total = static_cast<double>(h.total());
  EXPECT_GT(total, 0.5 * static_cast<double>(trace.size()));
  EXPECT_LT(total, 1.5 * static_cast<double>(trace.size()));
}

TEST(FixedSizeSamplerTest, ResetRestoresInitialState) {
  FixedSizeSampler sampler(64);
  for (Addr a = 0; a < 10000; ++a) sampler.process(a);
  EXPECT_LT(sampler.rate(), 1.0);
  sampler.reset();
  EXPECT_DOUBLE_EQ(sampler.rate(), 1.0);
  EXPECT_EQ(sampler.tracked(), 0u);
  EXPECT_EQ(sampler.references_seen(), 0u);
  EXPECT_EQ(sampler.histogram().total(), 0u);

  const auto trace = zipf_trace(20000, 300, 5);
  FixedSizeSampler fresh(64);
  FixedSizeSampler recycled = std::move(sampler);
  const Histogram a = analyze_trace(fresh, trace);
  const Histogram b = analyze_trace(recycled, trace);
  EXPECT_TRUE(a == b);
}

TEST(FixedSizeSamplerTest, FinishIsIdempotent) {
  FixedSizeSampler sampler(32);
  for (Addr a = 0; a < 5000; ++a) sampler.process(a % 700);
  sampler.finish();
  const Histogram after_first = sampler.histogram();
  sampler.finish();
  EXPECT_TRUE(sampler.histogram() == after_first);
}

// --- Fixed-rate sampling: the no-budget case --------------------------------

std::vector<Addr> distinct_addresses(std::size_t n) {
  std::vector<Addr> addrs(n);
  std::iota(addrs.begin(), addrs.end(), Addr{0});
  return addrs;
}

TEST(SampleSelectionTest, RateBoundsMembership) {
  FixedSizeSampler sampler(kUnbounded, /*distance_cap=*/0, /*rate=*/0.1,
                           /*seed=*/7);
  sampler.process_block(distinct_addresses(100000));
  // Binomial(100000, 0.1): ~10000 +- 300 (3 sigma ~285).
  EXPECT_NEAR(static_cast<double>(sampler.sampled_references()), 10000.0,
              400.0);
  EXPECT_EQ(sampler.budget_evictions(), 0u);
  EXPECT_DOUBLE_EQ(sampler.rate(), 0.1);
}

TEST(SampleSelectionTest, DeterministicPerSeed) {
  const auto addrs = distinct_addresses(100);
  FixedSizeSampler a(kUnbounded, 0, 0.5, /*seed=*/3);
  FixedSizeSampler b(kUnbounded, 0, 0.5, /*seed=*/3);
  FixedSizeSampler other(kUnbounded, 0, 0.5, /*seed=*/4);
  const std::vector<Addr> picked = a.sample(addrs);
  EXPECT_EQ(picked, b.sample(addrs));
  EXPECT_NE(picked, other.sample(addrs));
}

TEST(SampleSelectionTest, RateOneSelectsEverything) {
  // The rate arrives at run time (a flag, a config file), so the compiler
  // cannot fold 1.0 * 2^64: the threshold must saturate, not overflow.
  volatile double runtime_one = 1.0;
  const auto trace = zipf_trace(5000, 300, 2);
  FixedSizeSampler sampler(kUnbounded, 0, runtime_one, /*seed=*/11);
  const Histogram h = analyze_trace(sampler, trace);
  EXPECT_EQ(sampler.sampled_references(), trace.size());
  EXPECT_TRUE(h == olken_analysis(trace));
  FixedSizeSampler batch(kUnbounded, 0, runtime_one, /*seed=*/11);
  EXPECT_EQ(batch.sample(trace).size(), trace.size());
}

TEST(SampledAnalysisTest, RateOneIsExact) {
  UniformRandomWorkload w(200, 5);
  const auto trace = generate_trace(w, 5000);
  EXPECT_TRUE(sampled_analysis(trace, 1.0) == olken_analysis(trace));
}

TEST(SampledAnalysisTest, MrcCloseToExact) {
  // The headline property: the sampled MRC tracks the exact MRC.
  ZipfWorkload w(5000, 0.9, 17);
  const auto trace = generate_trace(w, 200000);
  const Histogram exact = olken_analysis(trace);
  const Histogram approx = sampled_analysis(trace, 0.1, 3);
  double worst = 0.0;
  for (std::uint64_t c = 16; c <= 8192; c *= 2) {
    const double err =
        std::abs(miss_ratio(exact, c) - miss_ratio(approx, c));
    worst = std::max(worst, err);
  }
  EXPECT_LT(worst, 0.05);
}

TEST(SampledAnalysisTest, TotalScalesBack) {
  UniformRandomWorkload w(3000, 9);
  const auto trace = generate_trace(w, 100000);
  const Histogram approx = sampled_analysis(trace, 0.25, 5);
  EXPECT_NEAR(static_cast<double>(approx.total()),
              static_cast<double>(trace.size()),
              static_cast<double>(trace.size()) * 0.1);
}

TEST(SampledAnalysisTest, ComposesWithParda) {
  ZipfWorkload w(2000, 1.0, 23);
  const auto trace = generate_trace(w, 60000);
  PardaOptions options;
  options.num_procs = 3;
  const Histogram via_parda =
      sampled_parda_analysis(trace, 0.2, options, 7);
  const Histogram via_seq = sampled_analysis(trace, 0.2, 7);
  // Same sample, same threshold, scaling and adjustment: identical results.
  EXPECT_TRUE(via_parda == via_seq);
}

}  // namespace
}  // namespace parda

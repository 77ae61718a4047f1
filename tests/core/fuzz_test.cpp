// Randomized cross-engine equivalence sweep: for a battery of seeds and
// workload shapes, every exact engine in the repository must produce the
// identical histogram — naive stack, Olken on all four trees,
// Bennett-Kruskal, offline Parda (both merge variants, several rank
// counts), and streaming Parda — and the bounded variants must equal the
// bounded sequential analysis.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/parda.hpp"
#include "seq/bennett_kruskal.hpp"
#include "seq/bounded.hpp"
#include "seq/interval_analyzer.hpp"
#include "seq/naive.hpp"
#include "seq/olken.hpp"
#include "seq/opt.hpp"
#include "trace/trace_pipe.hpp"
#include "tree/avl_tree.hpp"
#include "tree/treap.hpp"
#include "tree/vector_tree.hpp"
#include "util/prng.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

/// An adversarial trace cocktail: random segments of wildly different
/// locality, chosen by seed.
std::vector<Addr> cocktail_trace(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  std::vector<Addr> trace;
  trace.reserve(n);
  while (trace.size() < n) {
    const std::size_t segment =
        std::min<std::size_t>(n - trace.size(), 64 + rng.below(512));
    switch (rng.below(6)) {
      case 0: {  // constant hammering
        const Addr a = rng.below(64);
        for (std::size_t i = 0; i < segment; ++i) trace.push_back(a);
        break;
      }
      case 1: {  // fresh addresses (all infinities)
        for (std::size_t i = 0; i < segment; ++i) {
          trace.push_back((1ULL << 32) + rng());
        }
        break;
      }
      case 2: {  // small cyclic sweep
        const std::uint64_t m = 2 + rng.below(32);
        for (std::size_t i = 0; i < segment; ++i) {
          trace.push_back(1000 + i % m);
        }
        break;
      }
      case 3: {  // uniform over a mid-size pool
        const std::uint64_t m = 16 + rng.below(500);
        for (std::size_t i = 0; i < segment; ++i) {
          trace.push_back(5000 + rng.below(m));
        }
        break;
      }
      case 4: {  // sawtooth (stack-like)
        const std::uint64_t m = 4 + rng.below(64);
        for (std::size_t i = 0; i < segment; ++i) {
          const std::uint64_t phase = i % (2 * m);
          trace.push_back(9000 + (phase < m ? phase : 2 * m - phase - 1));
        }
        break;
      }
      default: {  // revisit something from earlier in the trace
        for (std::size_t i = 0; i < segment; ++i) {
          if (trace.empty()) {
            trace.push_back(7);
          } else {
            trace.push_back(trace[rng.below(trace.size())]);
          }
        }
        break;
      }
    }
  }
  trace.resize(n);
  return trace;
}

class FuzzEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzEquivalenceTest, AllExactEnginesAgree) {
  const std::uint64_t seed = GetParam();
  const auto trace = cocktail_trace(seed, 4000);
  const Histogram expected = olken_analysis<SplayTree>(trace);

  EXPECT_TRUE(naive_stack_analysis(trace) == expected);
  EXPECT_TRUE(olken_analysis<AvlTree>(trace) == expected);
  EXPECT_TRUE(olken_analysis<Treap>(trace) == expected);
  EXPECT_TRUE(olken_analysis<VectorTree>(trace) == expected);
  EXPECT_TRUE(bennett_kruskal_analysis(trace) == expected);
  EXPECT_TRUE(interval_analysis(trace) == expected);

  for (const int np : {2, 5}) {
    for (const bool space_opt : {false, true}) {
      PardaOptions options;
      options.num_procs = np;
      options.space_optimized = space_opt;
      EXPECT_TRUE(parda_analyze(trace, options).hist == expected)
          << "np=" << np << " opt=" << space_opt;
    }
  }
}

TEST_P(FuzzEquivalenceTest, BoundedEnginesAgree) {
  const std::uint64_t seed = GetParam();
  const auto trace = cocktail_trace(seed ^ 0xBEEF, 4000);
  for (const std::uint64_t bound : {3ULL, 17ULL, 129ULL}) {
    const Histogram expected = bounded_analysis(trace, bound);
    PardaOptions options;
    options.num_procs = 4;
    options.bound = bound;
    EXPECT_TRUE(parda_analyze(trace, options).hist == expected)
        << "B=" << bound;
  }
}

TEST_P(FuzzEquivalenceTest, StreamedMatchesOffline) {
  const std::uint64_t seed = GetParam();
  const auto trace = cocktail_trace(seed ^ 0xF00D, 3000);
  const Histogram expected = olken_analysis(trace);
  Xoshiro256 rng(seed);
  PardaOptions options;
  options.num_procs = 1 + static_cast<int>(rng.below(6));
  options.chunk_words = 16 + rng.below(700);
  const std::size_t block = 1 + rng.below(900);

  TracePipe pipe(512);
  std::thread producer([&] {
    for (std::size_t at = 0; at < trace.size(); at += block) {
      const std::size_t hi = std::min(at + block, trace.size());
      pipe.write(std::span<const Addr>(trace.data() + at, hi - at));
    }
    pipe.close();
  });
  PipeTraceSource source(pipe);
  const PardaResult result = parda_analyze(source, options);
  producer.join();
  EXPECT_TRUE(result.hist == expected)
      << "np=" << options.num_procs << " C=" << options.chunk_words
      << " block=" << block;
}

TEST_P(FuzzEquivalenceTest, BoundedStreamedMatchesBoundedSequential) {
  const std::uint64_t seed = GetParam();
  const auto trace = cocktail_trace(seed ^ 0xCAFE, 3000);
  Xoshiro256 rng(seed * 3 + 1);
  const std::uint64_t bound = 2 + rng.below(200);
  const Histogram expected = bounded_analysis(trace, bound);

  PardaOptions options;
  options.num_procs = 1 + static_cast<int>(rng.below(5));
  options.chunk_words = 16 + rng.below(400);
  options.bound = bound;

  TracePipe pipe(256);
  std::thread producer([&] {
    for (std::size_t at = 0; at < trace.size(); at += 100) {
      const std::size_t hi = std::min(at + 100, trace.size());
      pipe.write(std::span<const Addr>(trace.data() + at, hi - at));
    }
    pipe.close();
  });
  PipeTraceSource source(pipe);
  const PardaResult result = parda_analyze(source, options);
  producer.join();
  EXPECT_TRUE(result.hist == expected)
      << "np=" << options.num_procs << " C=" << options.chunk_words
      << " B=" << bound;
}

TEST_P(FuzzEquivalenceTest, OptStackMatchesBeladySimulator) {
  const std::uint64_t seed = GetParam();
  const auto trace = cocktail_trace(seed ^ 0xD00D, 2500);
  const Histogram opt = opt_distance_analysis(trace);
  Xoshiro256 rng(seed + 5);
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t c = 1 + rng.below(400);
    OptCacheSim sim(c, trace);
    EXPECT_EQ(sim.run(), opt.hits_below(c)) << "C=" << c;
  }
  // Belady dominates LRU everywhere.
  const Histogram lru = olken_analysis(trace);
  for (std::uint64_t c = 1; c <= 1024; c *= 4) {
    EXPECT_GE(opt.hits_below(c), lru.hits_below(c)) << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace parda

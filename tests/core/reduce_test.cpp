// Direct tests of the histogram reduction (the reduce_sum of Algorithm 3)
// over the comm runtime, across rank counts, roots, and payload shapes.
#include <gtest/gtest.h>

#include <vector>

#include "comm/comm.hpp"
#include "core/parda.hpp"
#include "util/prng.hpp"

namespace parda {
namespace {

Histogram rank_histogram(int rank) {
  Histogram h;
  // Distinct shape per rank: rank r contributes r+1 at distance r and one
  // infinity.
  h.record(static_cast<Distance>(rank), static_cast<std::uint64_t>(rank) + 1);
  h.record(kInfiniteDistance);
  return h;
}

class ReduceHistogramTest : public ::testing::TestWithParam<int> {};

TEST_P(ReduceHistogramTest, SumsAcrossAllRanks) {
  const int np = GetParam();
  comm::run(np, [np](comm::Comm& comm) {
    const Histogram mine = rank_histogram(comm.rank());
    const Histogram total = reduce_histogram(comm, mine, 0);
    if (comm.rank() == 0) {
      for (int r = 0; r < np; ++r) {
        EXPECT_EQ(total.at(static_cast<Distance>(r)),
                  static_cast<std::uint64_t>(r) + 1)
            << r;
      }
      EXPECT_EQ(total.infinities(), static_cast<std::uint64_t>(np));
      EXPECT_EQ(total.total(),
                static_cast<std::uint64_t>(np) * (np + 1) / 2 +
                    static_cast<std::uint64_t>(np));
    } else {
      EXPECT_EQ(total.total(), 0u);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ReduceHistogramTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16, 64));

TEST(ReduceHistogramTest, NonZeroRoot) {
  comm::run(6, [](comm::Comm& comm) {
    const Histogram mine = rank_histogram(comm.rank());
    const Histogram total = reduce_histogram(comm, mine, 4);
    if (comm.rank() == 4) {
      EXPECT_EQ(total.infinities(), 6u);
    } else {
      EXPECT_EQ(total.total(), 0u);
    }
  });
}

TEST(ReduceHistogramTest, EmptyHistograms) {
  comm::run(4, [](comm::Comm& comm) {
    const Histogram total = reduce_histogram(comm, Histogram{}, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(total.total(), 0u);
    }
  });
}

TEST(ReduceHistogramTest, RaggedShapes) {
  // Rank 0 has a huge max distance, others tiny: the tree merge must
  // handle mismatched dense-array lengths in both directions.
  comm::run(3, [](comm::Comm& comm) {
    Histogram mine;
    if (comm.rank() == 0) {
      mine.record(100000, 1);
    } else {
      mine.record(static_cast<Distance>(comm.rank()), 7);
    }
    const Histogram total = reduce_histogram(comm, mine, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(total.at(100000), 1u);
      EXPECT_EQ(total.at(1), 7u);
      EXPECT_EQ(total.at(2), 7u);
      EXPECT_EQ(total.total(), 15u);
    }
  });
}

TEST(ReduceHistogramTest, MatchesSerialMerge) {
  // Randomized: reduction result == folding merge() serially.
  Xoshiro256 rng(321);
  for (int round = 0; round < 5; ++round) {
    const int np = 2 + static_cast<int>(rng.below(7));
    std::vector<Histogram> inputs(static_cast<std::size_t>(np));
    Histogram expected;
    for (auto& h : inputs) {
      const int bins = 1 + static_cast<int>(rng.below(5));
      for (int b = 0; b < bins; ++b) {
        h.record(rng.below(64), 1 + rng.below(9));
      }
      h.record(kInfiniteDistance, rng.below(4));
      expected.merge(h);
    }
    comm::run(np, [&](comm::Comm& comm) {
      const Histogram total = reduce_histogram(
          comm, inputs[static_cast<std::size_t>(comm.rank())], 0);
      if (comm.rank() == 0) {
        EXPECT_TRUE(total == expected);
      }
    });
  }
}

}  // namespace
}  // namespace parda

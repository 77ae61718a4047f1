// Direct tests of the closing reduction (the reduce_sum of Algorithm 3)
// over the comm runtime: the histograms and the rank profiles that ride
// with them, across rank counts and payload shapes, plus the checks rank 0
// makes on what arrives.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "comm/worker_pool.hpp"
#include "core/messages.hpp"
#include "core/parda.hpp"
#include "util/check.hpp"
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

/// A profile whose mass agrees with `h`.
RankProfile profile_of(const Histogram& h) {
  RankProfile p;
  p.chunk_refs = h.total();
  p.hits_resolved = h.finite_total();
  return p;
}

/// Rank r of np's profile: consistent with rank_histogram(r), with a
/// record stream in which rank r forwards r records that rank r - 1
/// receives, and per-rank values that pin the rank order.
RankProfile rank_profile(int rank, int np) {
  const auto r = static_cast<std::uint64_t>(rank);
  RankProfile p = profile_of(rank_histogram(rank));
  p.records_forwarded = r;
  p.records_received = rank + 1 < np ? r + 1 : 0;
  p.peak_resident = 1000 + r;
  p.phases = 7 * r;
  return p;
}

void expect_same_profile(const RankProfile& a, const RankProfile& b) {
  EXPECT_EQ(a.chunk_refs, b.chunk_refs);
  EXPECT_EQ(a.records_received, b.records_received);
  EXPECT_EQ(a.records_forwarded, b.records_forwarded);
  EXPECT_EQ(a.hits_resolved, b.hits_resolved);
  EXPECT_EQ(a.peak_resident, b.peak_resident);
  EXPECT_EQ(a.phases, b.phases);
}

/// Runs the reduction on np ranks, each contributing hists[r] and
/// profiles[r]; returns rank 0's result.
PardaResult reduce_on(int np, const std::vector<Histogram>& hists,
                      const std::vector<RankProfile>& profiles) {
  PardaResult result;
  comm::run(np, [&](comm::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    reduce_results(comm, hists[r], profiles[r], result);
  });
  return result;
}

class ReduceHistogramTest : public ::testing::TestWithParam<int> {};

TEST_P(ReduceHistogramTest, SumsAcrossAllRanks) {
  const int np = GetParam();
  std::vector<Histogram> hists;
  std::vector<RankProfile> profiles;
  Histogram serial;
  for (int r = 0; r < np; ++r) {
    hists.push_back(rank_histogram(r));
    profiles.push_back(rank_profile(r, np));
    serial.merge(hists.back());
  }
  const PardaResult result = reduce_on(np, hists, profiles);
  const Histogram& total = result.hist;
  EXPECT_TRUE(total == serial);
  for (int r = 0; r < np; ++r) {
    EXPECT_EQ(total.at(static_cast<Distance>(r)),
              static_cast<std::uint64_t>(r) + 1)
        << r;
  }
  EXPECT_EQ(total.infinities(), static_cast<std::uint64_t>(np));
  EXPECT_EQ(total.total(), static_cast<std::uint64_t>(np) * (np + 1) / 2 +
                               static_cast<std::uint64_t>(np));
  // Every rank's profile arrives, in rank order.
  ASSERT_EQ(result.profiles.size(), static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    expect_same_profile(result.profiles[static_cast<std::size_t>(r)],
                        profiles[static_cast<std::size_t>(r)]);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ReduceHistogramTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16, 64));

TEST(ReduceHistogramTest, OnlyRankZeroWritesTheResult) {
  // Each rank hands the reduction its own result: only rank 0's is filled,
  // and each of the np - 1 others sends exactly one message.
  constexpr int kRanks = 6;
  std::vector<PardaResult> results(kRanks);
  const comm::RunStats stats = comm::run(kRanks, [&](comm::Comm& comm) {
    const int r = comm.rank();
    reduce_results(comm, rank_histogram(r), rank_profile(r, kRanks),
                   results[static_cast<std::size_t>(r)]);
  });
  EXPECT_EQ(results[0].profiles.size(), static_cast<std::size_t>(kRanks));
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)].hist.total(), 0u);
    EXPECT_TRUE(results[static_cast<std::size_t>(r)].profiles.empty());
    EXPECT_EQ(stats.ranks[static_cast<std::size_t>(r)].messages_sent, 1u);
  }
  EXPECT_EQ(stats.total_messages(), static_cast<std::uint64_t>(kRanks - 1));
}

TEST(ReduceHistogramTest, EmptyHistograms) {
  const PardaResult result = reduce_on(
      4, std::vector<Histogram>(4), std::vector<RankProfile>(4));
  EXPECT_EQ(result.hist.total(), 0u);
  EXPECT_EQ(result.profiles.size(), 4u);
}

TEST(ReduceHistogramTest, RaggedShapes) {
  // Rank 0 has a huge max distance, others tiny: the tree merge must
  // handle mismatched dense-array lengths in both directions.
  std::vector<Histogram> hists(3);
  hists[0].record(100000, 1);
  hists[1].record(1, 7);
  hists[2].record(2, 7);
  std::vector<RankProfile> profiles;
  for (const Histogram& h : hists) profiles.push_back(profile_of(h));
  const Histogram total = reduce_on(3, hists, profiles).hist;
  EXPECT_EQ(total.at(100000), 1u);
  EXPECT_EQ(total.at(1), 7u);
  EXPECT_EQ(total.at(2), 7u);
  EXPECT_EQ(total.total(), 15u);
}

TEST(ReduceHistogramTest, MatchesSerialMerge) {
  // Randomized: reduction result == folding merge() serially.
  Xoshiro256 rng(321);
  for (int round = 0; round < 5; ++round) {
    const int np = 2 + static_cast<int>(rng.below(7));
    std::vector<Histogram> inputs(static_cast<std::size_t>(np));
    std::vector<RankProfile> profiles;
    Histogram expected;
    for (auto& h : inputs) {
      const int bins = 1 + static_cast<int>(rng.below(5));
      for (int b = 0; b < bins; ++b) {
        h.record(rng.below(64), 1 + rng.below(9));
      }
      h.record(kInfiniteDistance, rng.below(4));
      expected.merge(h);
      profiles.push_back(profile_of(h));
    }
    EXPECT_TRUE(reduce_on(np, inputs, profiles).hist == expected);
  }
}

TEST(ReduceHistogramTest, UnbalancedMassThrows) {
  // Rank 0 checks that the profiles account for the histogram: each of the
  // three equalities, broken on the last rank, fails the job.
  const auto bump_refs = [](RankProfile& p) { ++p.chunk_refs; };
  const auto bump_hits = [](RankProfile& p) { ++p.hits_resolved; };
  const auto bump_records = [](RankProfile& p) { ++p.records_forwarded; };
  for (const int np : {1, 3}) {
    for (const auto& bump : {+bump_refs, +bump_hits, +bump_records}) {
      SCOPED_TRACE("np " + std::to_string(np));
      std::vector<Histogram> hists;
      std::vector<RankProfile> profiles;
      for (int r = 0; r < np; ++r) {
        hists.push_back(rank_histogram(r));
        profiles.push_back(rank_profile(r, np));
      }
      bump(profiles.back());
      EXPECT_THROW(reduce_on(np, hists, profiles), CheckError);
    }
  }
}

TEST(ReduceHistogramTest, MalformedMessageFailsTheJobNotTheProcess) {
  // Rank 1 sends rank 0's reduction a message of its own making, as a
  // faulty or hostile peer process could. Each must fail that job with
  // CheckError, and the pool must still run the next one.
  Histogram h;
  h.record(1, 2);
  const std::vector<std::uint64_t> good = h.to_words();  // {0, 2, 2, 0, 2}
  const std::vector<std::uint64_t> trailer(6, 0);  // one zero RankProfile
  const auto with_trailer = [&](std::vector<std::uint64_t> words) {
    words.insert(words.end(), trailer.begin(), trailer.end());
    return words;
  };
  std::vector<std::uint64_t> bumped = good;
  ++bumped[1];
  const std::vector<std::vector<std::uint64_t>> malformed = {
      {},                               // no room for the profile
      trailer,                          // no histogram words
      with_trailer({0, 2, 5, 0, 2}),    // declares 5 counts, holds 2
      with_trailer(bumped),             // total != infinities + counts
  };
  comm::WorkerPool pool(2);
  for (const std::vector<std::uint64_t>& words : malformed) {
    SCOPED_TRACE(std::to_string(words.size()) + " words");
    EXPECT_THROW(pool.run_job(2,
                              [&](comm::Comm& comm) {
                                if (comm.rank() == 1) {
                                  comm.send(0, kTagHistogram,
                                            std::vector<std::uint64_t>(words));
                                  return;
                                }
                                PardaResult result;
                                reduce_results(comm, Histogram{},
                                               RankProfile{}, result);
                              }),
                 CheckError);
  }
  PardaResult result;
  pool.run_job(2, [&](comm::Comm& comm) {
    reduce_results(comm, rank_histogram(comm.rank()),
                   rank_profile(comm.rank(), 2), result);
  });
  EXPECT_EQ(result.hist.total(), 5u);
  EXPECT_EQ(result.profiles.size(), 2u);
}

}  // namespace
}  // namespace parda

// Property tests for the parallel algorithm: Parda must equal the
// sequential analysis exactly, for every rank count, chunking and bound
// (paper Section IV-B).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/parda.hpp"
#include "core/rank_state.hpp"
#include "seq/bounded.hpp"
#include "seq/olken.hpp"
#include "workload/generators.hpp"
#include "workload/spec.hpp"

namespace parda {
namespace {

std::vector<Addr> mixed_trace(std::size_t n, std::uint64_t seed) {
  std::vector<std::unique_ptr<Workload>> kids;
  kids.push_back(std::make_unique<ZipfWorkload>(400, 0.9, seed, 0));
  kids.push_back(std::make_unique<SequentialWorkload>(150, 1));
  kids.push_back(std::make_unique<PointerChaseWorkload>(200, seed + 1, 2));
  MixWorkload mix(std::move(kids), {0.5, 0.3, 0.2}, seed + 2);
  return generate_trace(mix, n);
}

class PardaEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PardaEquivalenceTest, MatchesSequentialUnbounded) {
  const int np = GetParam();
  const auto trace = mixed_trace(6000, 42);
  const Histogram expected = olken_analysis(trace);

  PardaOptions options;
  options.num_procs = np;
  const PardaResult result = parda_analyze(trace, options);
  EXPECT_TRUE(result.hist == expected) << "np=" << np;
  EXPECT_EQ(result.stats.ranks.size(), static_cast<std::size_t>(np));
}

INSTANTIATE_TEST_SUITE_P(Ranks, PardaEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16),
                         [](const auto& info) {
                           return "np" + std::to_string(info.param);
                         });

class PardaBoundedTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(PardaBoundedTest, MatchesSequentialBounded) {
  const auto [np, bound] = GetParam();
  const auto trace = mixed_trace(6000, 1234);
  const Histogram expected = bounded_analysis(trace, bound);

  PardaOptions options;
  options.num_procs = np;
  options.bound = bound;
  const PardaResult result = parda_analyze(trace, options);
  EXPECT_TRUE(result.hist == expected) << "np=" << np << " B=" << bound;
}

INSTANTIATE_TEST_SUITE_P(
    RankAndBound, PardaBoundedTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 7),
                       ::testing::Values(1, 4, 16, 64, 256, 1024)),
    [](const auto& info) {
      return "np" + std::to_string(std::get<0>(info.param)) + "_B" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PardaTest, EmptyTrace) {
  PardaOptions options;
  options.num_procs = 4;
  const PardaResult result = parda_analyze({}, options);
  EXPECT_EQ(result.hist.total(), 0u);
}

TEST(PardaTest, TraceShorterThanRankCount) {
  const std::vector<Addr> trace{1, 2, 1};
  PardaOptions options;
  options.num_procs = 8;
  const PardaResult result = parda_analyze(trace, options);
  EXPECT_TRUE(result.hist == olken_analysis(trace));
}

TEST(PardaTest, SingleAddressTrace) {
  const std::vector<Addr> trace(100, 7);
  PardaOptions options;
  options.num_procs = 4;
  const PardaResult result = parda_analyze(trace, options);
  EXPECT_EQ(result.hist.infinities(), 1u);
  EXPECT_EQ(result.hist.at(0), 99u);
}

TEST(PardaTest, AllDistinctTrace) {
  std::vector<Addr> trace(512);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i] = i;
  PardaOptions options;
  options.num_procs = 4;
  const PardaResult result = parda_analyze(trace, options);
  EXPECT_EQ(result.hist.infinities(), 512u);
  EXPECT_EQ(result.hist.finite_total(), 0u);
}

TEST(PardaTest, SpecWorkloadsRoundTrip) {
  // End-to-end over three scaled SPEC profiles with awkward rank counts.
  for (std::string_view name : {"mcf", "libquantum", "povray"}) {
    auto w = make_spec_workload(name, /*scale=*/200000, /*seed=*/9);
    const auto trace = generate_trace(*w, 8000);
    const Histogram expected = olken_analysis(trace);
    PardaOptions options;
    options.num_procs = 5;
    EXPECT_TRUE(parda_analyze(trace, options).hist == expected)
        << std::string(name);
  }
}

TEST(PardaTest, BoundedWithBoundLargerThanFootprintEqualsExact) {
  const auto trace = mixed_trace(4000, 77);
  PardaOptions options;
  options.num_procs = 4;
  options.bound = 1 << 20;
  EXPECT_TRUE(parda_analyze(trace, options).hist == olken_analysis(trace));
}

// --- RankState unit behaviour ----------------------------------------------

TEST(PardaProfileTest, OfflineProfilesAreConsistent) {
  const auto trace = mixed_trace(6000, 99);
  PardaOptions options;
  options.num_procs = 4;
  const PardaResult result = parda_analyze(trace, options);
  ASSERT_EQ(result.profiles.size(), 4u);

  std::uint64_t chunk_total = 0;
  std::uint64_t hits_total = 0;
  for (const RankProfile& p : result.profiles) {
    chunk_total += p.chunk_refs;
    hits_total += p.hits_resolved;
    EXPECT_GT(p.peak_resident, 0u);
  }
  EXPECT_EQ(chunk_total, trace.size());
  EXPECT_EQ(hits_total, result.hist.finite_total());
  // Rank 0 forwards nothing; the rightmost rank receives nothing.
  EXPECT_EQ(result.profiles[0].records_forwarded, 0u);
  EXPECT_EQ(result.profiles[3].records_received, 0u);
  // Everything rank 1 forwards, rank 0 receives.
  EXPECT_EQ(result.profiles[0].records_received,
            result.profiles[1].records_forwarded);
}

TEST(PardaProfileTest, BoundedCapsPeakResidency) {
  const auto trace = mixed_trace(6000, 7);
  PardaOptions options;
  options.num_procs = 3;
  options.bound = 32;
  const PardaResult result = parda_analyze(trace, options);
  for (const RankProfile& p : result.profiles) {
    EXPECT_LE(p.peak_resident, 32u);
  }
}

TEST(RankStateTest, LocalInfinityPerDistinctElement) {
  // Property 4.2: one local-infinity entry per distinct element of the
  // chunk, in the order of first references.
  RankState state;
  for (const Addr a : {5, 6, 5, 7, 6, 6, 8}) state.process_own(a);
  EXPECT_EQ(state.take_local_infinities(), (std::vector<Addr>{5, 6, 7, 8}));
}

TEST(RankStateTest, SpaceOptimizedDeletesResolvedEntries) {
  RankState state;
  state.process_own(1);
  state.process_own(2);
  EXPECT_EQ(state.resident(), 2u);
  // Incoming infinity for address 1 resolves and removes the replica.
  state.process_incoming(std::vector<Addr>{1});
  EXPECT_EQ(state.resident_addrs(), (std::vector<Addr>{2}));
  EXPECT_EQ(state.received_count(), 1u);
  EXPECT_EQ(state.hist().at(1), 1u);  // one distinct element (2) intervened
}

TEST(RankStateTest, CountOffsetsIncomingDistances) {
  // Algorithm 4's count: misses processed earlier offset later hits.
  RankState state;
  state.process_own(100);
  state.take_local_infinities();
  // Two unseen addresses pass through, then a hit on 100: the two strangers
  // are distinct elements between the reuse pair.
  state.process_incoming(std::vector<Addr>{200, 300});
  state.process_incoming(std::vector<Addr>{100});
  EXPECT_EQ(state.hist().at(2), 1u);
}

TEST(RankStateTest, ExportImportRoundTrip) {
  RankState a;
  a.process_own(10);
  a.process_own(20);
  a.take_local_infinities();
  RankState b;
  b.process_own(30);
  b.take_local_infinities();
  const std::vector<Addr> exported = a.export_state();
  EXPECT_EQ(exported, (std::vector<Addr>{10, 20}));
  EXPECT_EQ(a.resident(), 0u);
  b.import_state(exported);
  EXPECT_EQ(b.resident_addrs(), (std::vector<Addr>{10, 20, 30}));
  // b can now resolve reuses of a's addresses.
  b.process_incoming(std::vector<Addr>{10});
  EXPECT_EQ(b.hist().at(2), 1u);  // 20 and 30 intervene
}

TEST(RankStateTest, BoundedImportKeepsNewest) {
  {
    RankState state(/*bound=*/2);
    state.import_state(std::vector<Addr>{1, 2, 3});
    EXPECT_EQ(state.resident_addrs(), (std::vector<Addr>{2, 3}));
    // Address 1 (oldest) was never keyed: a reuse of it misses.
    state.begin_merge_stage();
    state.process_incoming(std::vector<Addr>{1});
    EXPECT_EQ(state.pending_infinities(), 1u);
  }
  {
    // A holder with two own entries under B = 3 has room for one more:
    // the newest of the first part. The older part gets none.
    RankState holder(/*bound=*/3);
    holder.process_own(50);
    holder.process_own(60);
    holder.take_local_infinities();
    holder.import_state(std::vector<Addr>{30, 31});
    EXPECT_EQ(holder.resident_addrs(), (std::vector<Addr>{31, 50, 60}));
    EXPECT_EQ(holder.key_span(), 3u);
    holder.import_state(std::vector<Addr>{10, 11});
    EXPECT_EQ(holder.resident_addrs(), (std::vector<Addr>{31, 50, 60}));
    EXPECT_EQ(holder.key_span(), 3u);  // no key handed out
    EXPECT_EQ(holder.peak_resident(), 3u);
  }
}

TEST(RankStateKeyTest, PartsTakeKeysBelowResidentNewestFirst) {
  // A phase holder: its own chunk is newer than every imported part, and
  // it imports the parts newest first (virtual-rank order is time order),
  // each one below everything it already holds.
  RankState holder;
  holder.process_own(50);
  holder.process_own(60);
  holder.take_local_infinities();
  holder.import_state(std::vector<Addr>{30});
  holder.import_state(std::vector<Addr>{10, 11});
  EXPECT_EQ(holder.resident_addrs(), (std::vector<Addr>{10, 11, 30, 50, 60}));
  // The parts took the three keys just below the holder's two.
  EXPECT_EQ(holder.key_span(), 5u);
  // Distances see the merged order: 30, 50 and 60 follow 11.
  holder.begin_merge_stage();
  holder.process_incoming(std::vector<Addr>{11});
  EXPECT_EQ(holder.hist().at(3), 1u);
  // The export hands the order on, oldest first, and restarts the clock.
  EXPECT_EQ(holder.export_state(), (std::vector<Addr>{10, 30, 50, 60}));
  EXPECT_EQ(holder.resident(), 0u);
  EXPECT_EQ(holder.key_span(), 0u);
}

TEST(RankStateKeyTest, LongChunkRenumbersLiveKeys) {
  // Address 7 is referenced once, first, so it stays the oldest entry;
  // the rest cycle through 100 addresses. Without renumbering the key
  // span would reach the chunk length.
  std::vector<Addr> chunk{7};
  for (std::size_t i = 0; i < 3 * RankState::kKeySlack; ++i) {
    chunk.push_back(1000 + i % 100);
  }
  RankState state;
  state.process_own_block(chunk);
  EXPECT_EQ(state.resident(), 101u);
  EXPECT_LE(state.key_span(), 2 * state.resident() + RankState::kKeySlack);

  // The renumbered keys keep time order.
  const std::vector<Addr> resident = state.resident_addrs();
  ASSERT_EQ(resident.size(), 101u);
  EXPECT_EQ(resident.front(), 7u);
  EXPECT_EQ(resident.back(), chunk.back());
  // An incoming reference to 7 sees the 100 newer addresses.
  state.take_local_infinities();
  state.begin_merge_stage();
  state.process_incoming(std::vector<Addr>{7});
  EXPECT_EQ(state.hist().at(100), 1u);
}

TEST(RankStateTest, FlushGlobalInfinitiesCountsPending) {
  RankState state;
  state.process_own(1);
  state.process_own(2);
  state.flush_global_infinities();
  EXPECT_EQ(state.hist().infinities(), 2u);
  EXPECT_EQ(state.pending_infinities(), 0u);
}

}  // namespace
}  // namespace parda

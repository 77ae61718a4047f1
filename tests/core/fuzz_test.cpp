// Randomized cross-engine equivalence sweep: for a battery of seeds and
// workload shapes, every exact engine in the repository must produce the
// naive stack's histogram — Olken, Bennett-Kruskal, the interval engine,
// offline Parda (several rank counts, read from a mapped .trc and from a
// chunked .trz), and streaming Parda — and the bounded variants must equal
// both the bounded sequential analysis and the naive histogram folded at
// B. The naive stack shares no code with the Olken stack that the
// sequential engines and every Parda rank run on. Every unbounded Parda
// run must also forward and receive exactly the records Property 4.3
// predicts, and every bounded one must keep each rank within B.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/parda.hpp"
#include "core/rank_state.hpp"
#include "reference/interval_analyzer.hpp"
#include "reference/naive.hpp"
#include "seq/bennett_kruskal.hpp"
#include "seq/bounded.hpp"
#include "seq/olken.hpp"
#include "seq/opt.hpp"
#include "trace/source.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_pipe.hpp"
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

/// distinct_suffix(refs)[i] = |distinct(refs[i ..])|, for i in
/// 0 .. refs.size().
std::vector<std::uint64_t> distinct_suffix(std::span<const Addr> refs) {
  std::vector<std::uint64_t> out(refs.size() + 1, 0);
  std::unordered_set<Addr> seen;
  for (std::size_t i = refs.size(); i-- > 0;) {
    seen.insert(refs[i]);
    out[i] = seen.size();
  }
  return out;
}

/// Property 4.3 as record counts, offline and unbounded: rank p >= 1
/// forwards one record per distinct address of the trace from its view to
/// the end, and rank 0 forwards none; rank p < np - 1 receives what rank
/// p + 1 forwards, and the last rank receives none. `source` is the one
/// the analysis read, still partitioned for np: its views tile the trace
/// in rank order, so each view starts where the ones before it end.
void expect_offline_record_counts(const std::vector<Addr>& trace,
                                  TraceSource& source,
                                  const PardaResult& result, int np) {
  const std::vector<std::uint64_t> suffix = distinct_suffix(trace);
  std::vector<std::uint64_t> from_view(static_cast<std::size_t>(np) + 1, 0);
  std::size_t begin = 0;
  for (int p = 0; p < np; ++p) {
    from_view[static_cast<std::size_t>(p)] = suffix[begin];
    begin += source.rank_view(p).size();
  }
  ASSERT_EQ(begin, trace.size());
  ASSERT_EQ(result.profiles.size(), static_cast<std::size_t>(np));
  for (int p = 0; p < np; ++p) {
    const auto r = static_cast<std::size_t>(p);
    EXPECT_EQ(result.profiles[r].records_forwarded, p == 0 ? 0 : from_view[r])
        << "rank " << p;
    EXPECT_EQ(result.profiles[r].records_received, from_view[r + 1])
        << "rank " << p;
  }
}

/// Property 4.3 for a stream, unbounded: in each phase virtual rank v >= 1
/// starts empty and forwards one record per distinct address of the phase
/// from its chunk (v*C) to the phase's end, and virtual rank v - 1
/// receives them. Ranks swap places between phases, so only the totals
/// are fixed.
void expect_stream_record_counts(const std::vector<Addr>& trace,
                                 const PardaResult& result,
                                 const PardaOptions& options) {
  const std::size_t chunk = options.chunk_words;
  const std::size_t phase = chunk * static_cast<std::size_t>(options.num_procs);
  std::uint64_t expected = 0;
  for (std::size_t at = 0; at < trace.size(); at += phase) {
    const std::span<const Addr> refs(trace.data() + at,
                                     std::min(phase, trace.size() - at));
    const std::vector<std::uint64_t> suffix = distinct_suffix(refs);
    for (std::size_t lo = chunk; lo < refs.size(); lo += chunk) {
      expected += suffix[lo];
    }
  }
  std::uint64_t forwarded = 0;
  std::uint64_t received = 0;
  for (const RankProfile& p : result.profiles) {
    forwarded += p.records_forwarded;
    received += p.records_received;
  }
  EXPECT_EQ(forwarded, expected);
  EXPECT_EQ(received, expected);
}

/// Streams `trace` through a pipe of `pipe_words` in writes of `block`
/// references and runs streaming Parda (Algorithms 5-6).
PardaResult streamed(const std::vector<Addr>& trace,
                     const PardaOptions& options, std::size_t block,
                     std::size_t pipe_words) {
  PipeTraceSource source(pipe_words, [&](TracePipe& pipe) {
    for (std::size_t at = 0; at < trace.size(); at += block) {
      const std::size_t hi = std::min(at + block, trace.size());
      pipe.write(std::span<const Addr>(trace.data() + at, hi - at));
    }
  });
  return parda_analyze(source, options);
}

class FuzzEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzEquivalenceTest, AllExactEnginesAgree) {
  const std::uint64_t seed = GetParam();
  const auto trace = cocktail_trace(seed, 4000);
  const Histogram expected = naive_stack_analysis(trace);

  EXPECT_TRUE(olken_analysis(trace) == expected);
  EXPECT_TRUE(bennett_kruskal_analysis(trace) == expected);
  EXPECT_TRUE(interval_analysis(trace) == expected);
}

TEST_P(FuzzEquivalenceTest, ParallelMatchesSequential) {
  // Each seed's trace goes through both on-disk offline ingest paths: the
  // mapped .trc splits it by references, the .trz by whole chunks. The
  // drawn chunk length leaves the runs uneven at np = 5, and from 1000
  // references on (four chunks or fewer) a rank there gets no chunk.
  const std::uint64_t seed = GetParam();
  const auto trace = cocktail_trace(seed, 4000);
  const Histogram expected = naive_stack_analysis(trace);
  Xoshiro256 rng(seed ^ 0x1265);
  const std::uint64_t chunk_refs = 300 + rng.below(1500);
  const std::string stem = std::string(::testing::TempDir()) +
                           "/core_fuzz_seed" + std::to_string(seed);
  const std::string trc = stem + ".trc";
  const std::string trz = stem + ".trz";
  write_trace_binary(trc, trace);
  write_trace_chunked(trz, trace, chunk_refs);
  MmapTraceSource mmap(trc);
  ChunkedTrzSource chunked(trz);
  TraceSource* const sources[] = {&mmap, &chunked};
  for (const int np : {1, 2, 5}) {
    for (TraceSource* source : sources) {
      SCOPED_TRACE(::testing::Message()
                   << "np=" << np << (source == &mmap ? " mmap" : " trz")
                   << " chunk_refs=" << chunk_refs);
      PardaOptions options;
      options.num_procs = np;
      const PardaResult result = parda_analyze(*source, options);
      EXPECT_TRUE(result.hist == expected);
      expect_offline_record_counts(trace, *source, result, np);
    }
  }
  std::remove(trc.c_str());
  std::remove(trz.c_str());
}

TEST_P(FuzzEquivalenceTest, BoundedEnginesAgree) {
  const std::uint64_t seed = GetParam();
  const auto trace = cocktail_trace(seed ^ 0xBEEF, 4000);
  for (const std::uint64_t bound : {3ULL, 17ULL, 129ULL}) {
    const Histogram expected = bounded_analysis(trace, bound);
    EXPECT_TRUE(expected == naive_stack_analysis(trace, bound))
        << "B=" << bound;
    PardaOptions options;
    options.num_procs = 4;
    options.bound = bound;
    const PardaResult result = parda_analyze(trace, options);
    EXPECT_TRUE(result.hist == expected) << "B=" << bound;
    for (const RankProfile& p : result.profiles) {
      EXPECT_LE(p.peak_resident, bound) << "B=" << bound;
    }
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
  SCOPED_TRACE(::testing::Message() << "np=" << options.num_procs << " C="
                                    << options.chunk_words
                                    << " block=" << block);

  const PardaResult result = streamed(trace, options, block, 512);
  EXPECT_TRUE(result.hist == expected);
  expect_stream_record_counts(trace, result, options);
}

TEST_P(FuzzEquivalenceTest, BoundedStreamedMatchesBoundedSequential) {
  const std::uint64_t seed = GetParam();
  const auto trace = cocktail_trace(seed ^ 0xCAFE, 3000);
  Xoshiro256 rng(seed * 3 + 1);
  const std::uint64_t bound = 2 + rng.below(200);
  const Histogram expected = bounded_analysis(trace, bound);
  EXPECT_TRUE(expected == naive_stack_analysis(trace, bound));

  PardaOptions options;
  options.num_procs = 1 + static_cast<int>(rng.below(5));
  options.chunk_words = 16 + rng.below(400);
  options.bound = bound;
  SCOPED_TRACE(::testing::Message() << "np=" << options.num_procs << " C="
                                    << options.chunk_words << " B=" << bound);

  const PardaResult result = streamed(trace, options, 100, 256);
  EXPECT_TRUE(result.hist == expected);
  for (const RankProfile& p : result.profiles) {
    EXPECT_LE(p.peak_resident, bound);
  }
}

/// Runs the phase loop of stream_rank_body at np = 1 over `trace` in
/// phases of `chunk`: rank 0 is virtual rank 0 and the holder, its merge
/// stage only flushes, and it never exports, so only its own renumbering
/// bounds the key span (and with it the FenwickIndex window). Checks the
/// span after every phase, then the histogram, also through the real
/// np = 1 stream.
void expect_single_rank_span_bounded(const std::vector<Addr>& trace,
                                     std::uint64_t bound, std::size_t chunk) {
  ASSERT_GE(trace.size() / chunk, 64u);
  RankState state(bound);
  for (std::size_t at = 0; at < trace.size(); at += chunk) {
    const std::size_t n = std::min(chunk, trace.size() - at);
    state.begin_merge_stage();
    state.process_own_block(std::span<const Addr>(trace.data() + at, n));
    state.flush_global_infinities();
    ASSERT_LE(state.key_span(), 2 * state.resident() + chunk) << "at " << at;
  }
  const Histogram expected = bounded_analysis(trace, bound);
  EXPECT_TRUE(expected == naive_stack_analysis(trace, bound));
  EXPECT_TRUE(state.hist() == expected);

  PardaOptions options;
  options.num_procs = 1;
  options.chunk_words = chunk;
  options.bound = bound;
  EXPECT_TRUE(streamed(trace, options, 100, 256).hist == expected);
}

TEST_P(FuzzEquivalenceTest, SingleRankStreamKeepsKeySpanBounded) {
  const std::uint64_t seed = GetParam();
  const std::size_t chunk = 64;
  const std::vector<Addr> mix = cocktail_trace(seed ^ 0x5EED, 6000);
  {
    // A lonely first address stays resident, and oldest, for the whole
    // run; the rest fold into 257 addresses.
    SCOPED_TRACE("lonely oldest");
    std::vector<Addr> trace{~Addr{0}};
    for (const Addr a : mix) trace.push_back(a % 257);
    expect_single_rank_span_bounded(trace, kUnbounded, chunk);
  }
  {
    // A cyclic sweep: the oldest key advances every reference, but each
    // reference still leaves one dead key behind.
    SCOPED_TRACE("cyclic");
    std::vector<Addr> trace;
    for (std::size_t i = 0; i < mix.size(); ++i) trace.push_back(i % 257);
    expect_single_rank_span_bounded(trace, kUnbounded, chunk);
  }
  {
    // A scan under a bound: every reference misses and evicts the oldest.
    SCOPED_TRACE("bounded scan");
    std::vector<Addr> trace;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      trace.push_back(seed * mix.size() + i);
    }
    expect_single_rank_span_bounded(trace, 100, chunk);
  }
}

TEST(LongChunkTest, OfflineRanksRenumberTheirKeys) {
  // Chunks far longer than 2 * resident + kKeySlack, and a lonely address
  // that stays oldest on rank 0: every rank renumbers its keys mid-chunk,
  // and neither the histogram nor the record counts may notice.
  std::vector<Addr> trace{~Addr{0}};
  for (const Addr a : cocktail_trace(77, 3 * RankState::kKeySlack)) {
    trace.push_back(a % 257);
  }
  const Histogram expected = olken_analysis(trace);
  SpanTraceSource source(trace);
  for (const int np : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "np=" << np);
    PardaOptions options;
    options.num_procs = np;
    const PardaResult result = parda_analyze(source, options);
    EXPECT_TRUE(result.hist == expected);
    expect_offline_record_counts(trace, source, result, np);
  }
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

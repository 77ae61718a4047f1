// Tests for the multi-phase online algorithm (Algorithms 5-6): streaming
// through a TracePipe must give exactly the offline/sequential result, for
// every phase size, rank count, and cache bound.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/file_analysis.hpp"
#include "core/parda.hpp"
#include "obs/runtime.hpp"
#include "obs/span_tracer.hpp"
#include "seq/bounded.hpp"
#include "seq/olken.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_pipe.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

std::vector<Addr> stream_trace(std::size_t n, std::uint64_t seed) {
  std::vector<std::unique_ptr<Workload>> kids;
  kids.push_back(std::make_unique<ZipfWorkload>(300, 0.8, seed, 0));
  kids.push_back(std::make_unique<SequentialWorkload>(100, 1));
  MixWorkload mix(std::move(kids), {0.6, 0.4}, seed);
  return generate_trace(mix, n);
}

/// Runs the streaming analysis with a producer writing the trace into the
/// pipe in blocks of `block_words`.
PardaResult run_streamed(const std::vector<Addr>& trace,
                         const PardaOptions& options,
                         std::size_t pipe_capacity,
                         std::size_t block_words) {
  PipeTraceSource source(pipe_capacity, [&](TracePipe& pipe) {
    for (std::size_t at = 0; at < trace.size(); at += block_words) {
      const std::size_t hi = std::min(at + block_words, trace.size());
      pipe.write(std::span<const Addr>(trace.data() + at, hi - at));
    }
  });
  return parda_analyze(source, options);
}

class StreamEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(StreamEquivalenceTest, MatchesSequential) {
  const auto [np, chunk] = GetParam();
  const auto trace = stream_trace(7000, 11);
  const Histogram expected = olken_analysis(trace);

  PardaOptions options;
  options.num_procs = np;
  options.chunk_words = chunk;
  const PardaResult result = run_streamed(trace, options, 2048, 513);
  EXPECT_TRUE(result.hist == expected)
      << "np=" << np << " C=" << chunk;
}

INSTANTIATE_TEST_SUITE_P(
    PhaseGeometry, StreamEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(64, 100, 1000, 4096)),
    [](const auto& info) {
      return "np" + std::to_string(std::get<0>(info.param)) + "_C" +
             std::to_string(std::get<1>(info.param));
    });

TEST(StreamTest, ExactPhaseMultipleLength) {
  // Trace length an exact multiple of np*C: the final phase is full and a
  // zero-length phase terminates the loop.
  const auto trace = stream_trace(4096, 3);
  PardaOptions options;
  options.num_procs = 4;
  options.chunk_words = 256;  // 4 * 256 = 1024 divides 4096
  const PardaResult result = run_streamed(trace, options, 512, 128);
  EXPECT_TRUE(result.hist == olken_analysis(trace));
}

TEST(StreamTest, SinglePhaseWholeTrace) {
  const auto trace = stream_trace(900, 4);
  PardaOptions options;
  options.num_procs = 3;
  options.chunk_words = 1000;  // phase swallows everything
  const PardaResult result = run_streamed(trace, options, 4096, 900);
  EXPECT_TRUE(result.hist == olken_analysis(trace));
}

TEST(StreamTest, ManyTinyPhases) {
  // Phases of np*C = 6 references stress the rank-reversal reduction.
  const auto trace = stream_trace(1000, 5);
  PardaOptions options;
  options.num_procs = 3;
  options.chunk_words = 2;
  const PardaResult result = run_streamed(trace, options, 64, 7);
  EXPECT_TRUE(result.hist == olken_analysis(trace));
}

TEST(StreamTest, EmptyStream) {
  PardaOptions options;
  options.num_procs = 4;
  const PardaResult result = run_streamed({}, options, 64, 16);
  EXPECT_EQ(result.hist.total(), 0u);
}

TEST(StreamTest, PipeSourceIsReusable) {
  // The driver makes a fresh pipe for each analysis and runs the producer
  // once per analysis, so one source analyzes the same trace twice.
  const auto trace = stream_trace(3000, 8);
  PipeTraceSource source(256, [&](TracePipe& pipe) { pipe.write(trace); });
  PardaOptions options;
  options.num_procs = 3;
  options.chunk_words = 200;
  const PardaResult first = parda_analyze(source, options);
  const PardaResult second = parda_analyze(source, options);
  EXPECT_TRUE(first.hist == olken_analysis(trace));
  EXPECT_TRUE(second.hist == first.hist);
}

TEST(StreamTest, PhaseLengthOverflowIsRejected) {
  // np * C wraps a size_t to 0, which would read empty phases and report
  // nothing: parda_analyze_source_on must reject the phase length, before
  // its producer starts.
  PipeTraceSource source(64, [](TracePipe&) { ADD_FAILURE() << "ran"; });
  PardaOptions options;
  options.num_procs = 2;
  options.chunk_words = std::size_t{1} << 63;
  EXPECT_THROW(parda_analyze(source, options), CheckError);
  options.num_procs = 4;
  options.chunk_words = std::size_t{1} << 62;
  EXPECT_THROW(parda_analyze(source, options), CheckError);
}

TEST(StreamTest, StreamShorterThanOnePhase) {
  const std::vector<Addr> trace{1, 2, 1, 3, 2};
  PardaOptions options;
  options.num_procs = 4;
  options.chunk_words = 100;
  const PardaResult result = run_streamed(trace, options, 64, 2);
  EXPECT_TRUE(result.hist == olken_analysis(trace));
}

TEST(StreamTest, ShortLastPhaseSkipsStateReduction) {
  // Phases of 300, 300 and 50 references. The full phases reduce the state
  // onto their holder; the short one ends the stream, so nothing would
  // read its state and no rank enters the reduction.
  struct ScopedEnable {
    bool prev = obs::enabled();
    ScopedEnable() { obs::set_enabled(true); }
    ~ScopedEnable() { obs::set_enabled(prev); }
  } on;
  obs::tracer().clear();

  const auto trace = stream_trace(650, 5);
  PardaOptions options;
  options.num_procs = 3;
  options.chunk_words = 100;
  const PardaResult result = run_streamed(trace, options, 1024, 128);
  EXPECT_TRUE(result.hist == olken_analysis(trace));

  for (int rank = 0; rank < options.num_procs; ++rank) {
    std::uint64_t reduces[3] = {0, 0, 0};
    for (const obs::SpanEvent& e : obs::tracer().events_for_rank(rank)) {
      if (std::string(e.op) != "reduce") continue;
      ASSERT_LT(e.phase, 3u) << "rank " << rank;
      ++reduces[e.phase];
    }
    EXPECT_EQ(reduces[0], 1u) << "rank " << rank;
    EXPECT_EQ(reduces[1], 1u) << "rank " << rank;
    EXPECT_EQ(reduces[2], 0u) << "rank " << rank;
  }
  obs::tracer().clear();
}

class StreamBoundedTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(StreamBoundedTest, BoundedStreamingMatchesBoundedSequential) {
  const auto [bound, chunk] = GetParam();
  const auto trace = stream_trace(5000, 21);
  const Histogram expected = bounded_analysis(trace, bound);

  PardaOptions options;
  options.num_procs = 4;
  options.chunk_words = chunk;
  options.bound = bound;
  const PardaResult result = run_streamed(trace, options, 1024, 200);
  EXPECT_TRUE(result.hist == expected)
      << "B=" << bound << " C=" << chunk;
  // No rank, the phase holder included, ever holds more than B.
  ASSERT_EQ(result.profiles.size(), 4u);
  for (const RankProfile& p : result.profiles) {
    EXPECT_LE(p.peak_resident, bound) << "B=" << bound << " C=" << chunk;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BoundAndPhase, StreamBoundedTest,
    ::testing::Combine(::testing::Values(1, 8, 64, 400),
                       ::testing::Values(64, 500)),
    [](const auto& info) {
      return "B" + std::to_string(std::get<0>(info.param)) + "_C" +
             std::to_string(std::get<1>(info.param));
    });

TEST(FileAnalysisTest, StreamsTraceFileCorrectly) {
  const auto trace = stream_trace(6000, 33);
  const std::string path =
      std::string(::testing::TempDir()) + "/file_analysis.trc";
  write_trace_binary(path, trace);

  PardaOptions options;
  options.num_procs = 3;
  options.chunk_words = 500;
  comm::WorkerPool pool(options.num_procs);
  const PardaResult result =
      parda_analyze_file_on(pool, path, options, /*pipe_words=*/2048);
  EXPECT_TRUE(result.hist == olken_analysis(trace));
  std::remove(path.c_str());
}

TEST(FileAnalysisTest, MissingFileThrows) {
  PardaOptions options;
  options.num_procs = 2;
  comm::WorkerPool pool(options.num_procs);
  EXPECT_THROW(parda_analyze_file_on(pool, "/does/not/exist.trc", options),
               std::runtime_error);
}

TEST(FileAnalysisTest, BoundedFileAnalysis) {
  const auto trace = stream_trace(4000, 41);
  const std::string path =
      std::string(::testing::TempDir()) + "/file_analysis_bounded.trc";
  write_trace_binary(path, trace);
  PardaOptions options;
  options.num_procs = 4;
  options.bound = 64;
  options.chunk_words = 256;
  comm::WorkerPool pool(options.num_procs);
  const PardaResult result = parda_analyze_file_on(pool, path, options, 1024);
  EXPECT_TRUE(result.hist == bounded_analysis(trace, 64));
  std::remove(path.c_str());
}

TEST(StreamTest, StreamingScatterCopiesEachBlockOnce) {
  // The streaming driver reads each phase block once and scatters chunk
  // views of that single block: O(1) copies of each phase block, observable
  // through the runtime's bytes_copied counter. Only tiny control traffic
  // (phase headers, per-rank profiles) may be copied; the trace words
  // themselves must move as shared views.
  const auto trace = stream_trace(40000, 17);
  PardaOptions options;
  options.num_procs = 4;
  options.chunk_words = 1000;
  const PardaResult result = run_streamed(trace, options, 8192, 2048);
  EXPECT_TRUE(result.hist == olken_analysis(trace));

  const std::uint64_t trace_bytes = trace.size() * sizeof(Addr);
  // Copied bytes stay bounded by control traffic — far below even a single
  // duplication of the trace.
  EXPECT_LT(result.stats.total_bytes_copied(), trace_bytes / 8)
      << "copied=" << result.stats.total_bytes_copied();
  // The bulk of the data (chunks for np-1 non-root ranks, plus pipeline
  // and state handoffs) moves as shared or moved buffers.
  EXPECT_GE(result.stats.total_bytes_shared(), trace_bytes / 2)
      << "shared=" << result.stats.total_bytes_shared();
}

TEST(StreamTest, CrossPhaseReuseResolved) {
  // A reuse pair that straddles a phase boundary: x at positions 0 and
  // just past the first phase; the distance must be the number of distinct
  // elements between, resolved via the carried global state.
  std::vector<Addr> trace;
  trace.push_back(999);
  for (Addr a = 0; a < 30; ++a) trace.push_back(a);  // 30 distinct
  trace.push_back(999);  // distance 30
  PardaOptions options;
  options.num_procs = 2;
  options.chunk_words = 8;  // phase = 16 refs, reuse spans phases
  const PardaResult result = run_streamed(trace, options, 64, 5);
  EXPECT_EQ(result.hist.at(30), 1u);
  EXPECT_EQ(result.hist.infinities(), 31u);
}

}  // namespace
}  // namespace parda

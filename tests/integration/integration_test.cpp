// Cross-module integration tests: the full Figure 3 pipeline (instrumented
// program -> pipe -> parallel online analysis -> histogram -> MRC -> cache
// validation), plus end-to-end consistency checks across every layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/miss_rate.hpp"
#include "cachesim/lru_cache.hpp"
#include "core/parda.hpp"
#include "obs/obs.hpp"
#include "hist/mrc.hpp"
#include "reference/naive.hpp"
#include "seq/olken.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_pipe.hpp"
#include "util/json.hpp"
#include "vm/programs.hpp"
#include "vm/tracer.hpp"
#include "workload/generators.hpp"
#include "workload/spec.hpp"

namespace parda {
namespace {

TEST(Figure3Pipeline, VmProgramThroughPipeToParallelAnalysis) {
  // The paper's framework: the instrumented program streams addresses into
  // a pipe; rank 0 scatters; the merged histogram equals offline analysis
  // of the same program's trace.
  const vm::Program program = vm::matmul(12);
  const std::vector<Addr> offline = vm::trace_program(program);
  const Histogram expected = olken_analysis(offline);

  PipeTraceSource source(1 << 12, [&](TracePipe& pipe) {
    vm::stream_program(program, pipe, 256);
  });
  PardaOptions options;
  options.num_procs = 4;
  options.chunk_words = 500;
  const PardaResult result = parda_analyze(source, options);

  EXPECT_TRUE(result.hist == expected);
  EXPECT_EQ(result.hist.total(), offline.size());
}

TEST(Figure3Pipeline, BoundedOnlineAnalysisOfListChase) {
  const vm::Program program = vm::list_chase(600, 4);
  const std::vector<Addr> offline = vm::trace_program(program);

  PipeTraceSource source(1024, [&](TracePipe& pipe) {
    vm::stream_program(program, pipe, 128);
  });
  PardaOptions options;
  options.num_procs = 3;
  options.chunk_words = 200;
  options.bound = 256;  // below the 600-node footprint: everything misses
  const PardaResult result = parda_analyze(source, options);

  // Every round-to-round reuse spans 599 distinct elements >= bound 256.
  EXPECT_EQ(result.hist.infinities(), offline.size());
  EXPECT_EQ(result.hist.finite_total(), 0u);
}

TEST(EndToEnd, AllEnginesAgreeOnSpecWorkload) {
  auto w = make_spec_workload("sphinx3", 400000, 17);
  const auto trace = generate_trace(*w, 6000);
  const Histogram naive = naive_stack_analysis(trace);
  const Histogram olken = olken_analysis(trace);
  PardaOptions options;
  options.num_procs = 4;
  const Histogram parda = parda_analyze(trace, options).hist;
  EXPECT_TRUE(naive == olken);
  EXPECT_TRUE(olken == parda);
}

TEST(EndToEnd, HistogramPredictsEveryCacheSize) {
  auto w = make_spec_workload("gobmk", 400000, 23);
  const auto trace = generate_trace(*w, 12000);
  PardaOptions options;
  options.num_procs = 2;
  const Histogram hist = parda_analyze(trace, options).hist;
  for (std::uint64_t c = 1; c <= 256; c *= 4) {
    LruCache cache(c);
    for (Addr a : trace) cache.access(a);
    EXPECT_EQ(cache.misses(), miss_count(hist, c)) << "C=" << c;
  }
}

TEST(EndToEnd, TraceFileRoundTripPreservesAnalysis) {
  auto w = make_spec_workload("bzip2", 400000, 29);
  const auto trace = generate_trace(*w, 5000);
  const std::string path =
      std::string(::testing::TempDir()) + "/bzip2_e2e.trc";
  write_trace_binary(path, trace);
  const auto loaded = read_trace_binary(path);
  EXPECT_TRUE(olken_analysis(trace) == olken_analysis(loaded));
  std::remove(path.c_str());
}

TEST(EndToEnd, BoundedPardaSufficesForBoundedCaches) {
  // Section V's premise: for predicting caches up to B, the bounded
  // analysis loses nothing.
  auto w = make_spec_workload("milc", 400000, 31);
  const auto trace = generate_trace(*w, 10000);
  const std::uint64_t bound = 128;
  PardaOptions options;
  options.num_procs = 4;
  options.bound = bound;
  const Histogram bounded = parda_analyze(trace, options).hist;
  for (std::uint64_t c : {1u, 16u, 64u, 128u}) {
    LruCache cache(c);
    for (Addr a : trace) cache.access(a);
    EXPECT_EQ(cache.misses(), miss_count(bounded, c)) << "C=" << c;
  }
}

TEST(EndToEnd, PerRankStatsAreAccounted) {
  const auto trace = generate_trace(
      *make_spec_workload("calculix", 400000, 37), 20000);
  PardaOptions options;
  options.num_procs = 4;
  const PardaResult result = parda_analyze(trace, options);
  // Every rank did some work and sent at least its infinity lists.
  std::uint64_t msgs = 0;
  for (const auto& r : result.stats.ranks) msgs += r.messages_sent;
  EXPECT_GE(msgs, 3u);  // ranks 1..3 each send at least one message
  EXPECT_GT(result.stats.total_busy(), 0.0);
  EXPECT_GE(result.stats.wall_seconds, 0.0);
}

TEST(Observability, StreamingRunEmitsPerPhaseSpansAndAgreeingMetrics) {
  // Algorithm 5 observed from the outside: a 4-rank streaming run must
  // leave behind (a) per-rank spans shaped scatter -> analyze ->
  // infinity-pipeline -> reduce for every phase but the short last one,
  // which has no reduce, plus one final-reduce, and (b) a metrics snapshot
  // whose engine counters agree exactly with the analysis result.
  obs::registry().reset_values();
  obs::tracer().clear();
  obs::set_enabled(true);

  constexpr int kRanks = 4;
  constexpr std::size_t kChunk = 512;
  const auto trace =
      generate_trace(*make_spec_workload("mcf", 400000, 11), 7000);

  PipeTraceSource source(1 << 12, [&](TracePipe& pipe) { pipe.write(trace); });
  PardaOptions options;
  options.num_procs = kRanks;
  options.chunk_words = kChunk;
  const PardaResult result = parda_analyze(source, options);
  obs::set_enabled(false);

  // --- Metrics agree with the analysis result and the comm RankStats.
  const obs::Registry& reg = obs::registry();
  EXPECT_EQ(reg.counter_total("engine.chunk_refs"), result.hist.total());
  EXPECT_EQ(reg.counter_total("engine.hits_resolved"),
            result.hist.finite_total());
  std::uint64_t msgs = 0, bytes = 0;
  for (const auto& r : result.stats.ranks) {
    msgs += r.messages_sent;
    bytes += r.bytes_sent;
  }
  EXPECT_EQ(reg.counter_total("comm.sends"), msgs);
  EXPECT_EQ(reg.counter_total("comm.bytes_sent"), bytes);
  EXPECT_GT(msgs, 0u);

  // --- Span structure: phases 0..P-1, the four-stage shape per rank. The
  // trace ends in a short phase, after which no state reduction runs.
  const std::uint64_t refs = trace.size();
  const std::uint32_t phases = static_cast<std::uint32_t>(
      (refs + kRanks * kChunk - 1) / (kRanks * kChunk));
  ASSERT_GE(phases, 3u) << "trace too short to exercise multiple phases";
  ASSERT_NE(refs % (kRanks * kChunk), 0u) << "the last phase must be short";

  for (int rank = 0; rank < kRanks; ++rank) {
    const auto spans = obs::tracer().events_for_rank(rank);
    std::uint64_t final_reduces = 0;
    for (std::uint32_t p = 0; p < phases; ++p) {
      const obs::SpanEvent* scatter = nullptr;
      const obs::SpanEvent* analyze = nullptr;
      const obs::SpanEvent* pipeline = nullptr;
      const obs::SpanEvent* reduce = nullptr;
      for (const auto& e : spans) {
        if (e.phase != p) continue;
        const std::string op = e.op;
        if (op == "scatter") {
          EXPECT_EQ(scatter, nullptr) << "duplicate scatter, phase " << p;
          scatter = &e;
        } else if (op == "analyze") {
          EXPECT_EQ(analyze, nullptr);
          analyze = &e;
        } else if (op == "infinity-pipeline") {
          EXPECT_EQ(pipeline, nullptr);
          pipeline = &e;
        } else if (op == "reduce") {
          EXPECT_EQ(reduce, nullptr);
          reduce = &e;
        }
      }
      ASSERT_NE(scatter, nullptr) << "rank " << rank << " phase " << p;
      ASSERT_NE(analyze, nullptr) << "rank " << rank << " phase " << p;
      ASSERT_NE(pipeline, nullptr) << "rank " << rank << " phase " << p;
      if (p + 1 < phases) {
        ASSERT_NE(reduce, nullptr) << "rank " << rank << " phase " << p;
      } else {
        EXPECT_EQ(reduce, nullptr) << "rank " << rank << " last phase";
      }
      // The stages run in Algorithm 5 order within the phase.
      EXPECT_LE(scatter->t_start_ns, analyze->t_start_ns);
      EXPECT_LE(analyze->t_end_ns, pipeline->t_end_ns);
      if (reduce != nullptr) {
        EXPECT_LE(pipeline->t_start_ns, reduce->t_start_ns);
      }
      EXPECT_LE(analyze->t_start_ns, analyze->t_end_ns);
    }
    for (const auto& e : spans) {
      // Beyond the P full phases only the end-of-stream scatter (which
      // reads zero words and terminates the loop) may appear.
      if (e.phase != obs::kNoPhase && e.phase >= phases) {
        EXPECT_STREQ(e.op, "scatter");
        EXPECT_EQ(e.phase, phases);
      }
      if (std::string(e.op) == "final-reduce") {
        EXPECT_EQ(e.phase, obs::kNoPhase);
        ++final_reduces;
      }
    }
    EXPECT_EQ(final_reduces, 1u) << "rank " << rank;
  }

  // The exported chrome trace for the run parses and is non-trivial.
  const std::string chrome = obs::tracer().to_chrome_json();
  EXPECT_GE(json::parse(chrome).at("traceEvents").array.size(),
            static_cast<std::size_t>(phases) * kRanks * 4);

  obs::registry().reset_values();
  obs::tracer().clear();
}

}  // namespace
}  // namespace parda

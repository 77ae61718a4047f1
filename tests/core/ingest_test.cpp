// The ingest contract (DESIGN.md "Ingest"): every TraceSource — in-memory
// span, pipe producer, zero-copy mmap views, chunked parallel .trz decode
// — must produce the bit-identical parda.histogram.v1 for the same trace,
// at every rank count and cache bound. Plus the structural guarantees the
// sources advertise: span and mmap rank views alias their storage (zero
// copies, proven for mmap by ingest.bytes_copied staying 0), trz chunk
// runs tile the archive, and views stay in-bounds for their source's
// lifetime (ASan patrols the mmap edges when this suite runs under the
// asan preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/file_analysis.hpp"
#include "core/parda.hpp"
#include "core/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "seq/bounded.hpp"
#include "seq/olken.hpp"
#include "trace/source.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<Addr> ingest_trace(std::size_t n, std::uint64_t seed) {
  std::vector<std::unique_ptr<Workload>> kids;
  kids.push_back(std::make_unique<ZipfWorkload>(400, 0.9, seed, 0));
  kids.push_back(std::make_unique<SequentialWorkload>(128, 1));
  MixWorkload mix(std::move(kids), {0.7, 0.3}, seed);
  return generate_trace(mix, n);
}

/// One trace written in both on-disk shapes, shared across the suite.
class IngestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new std::vector<Addr>(ingest_trace(6000, 23));
    trc_path_ = new std::string(temp_path("ingest_test.trc"));
    trz_path_ = new std::string(temp_path("ingest_test.trz"));
    write_trace_binary(*trc_path_, *trace_);
    // 512 refs/chunk -> 12 chunks: enough for interesting rank runs.
    write_trace_chunked(*trz_path_, *trace_, 512);
  }
  static void TearDownTestSuite() {
    std::remove(trc_path_->c_str());
    std::remove(trz_path_->c_str());
    delete trace_;
    delete trc_path_;
    delete trz_path_;
  }

  static PardaOptions options_for(int np, std::uint64_t bound) {
    PardaOptions options;
    options.num_procs = np;
    options.bound = bound;
    return options;
  }

  /// The .trc streamed through a pipe.
  static PardaResult analyze_streamed(int np, std::uint64_t bound) {
    comm::WorkerPool pool(np);
    return parda_analyze_file_on(pool, *trc_path_, options_for(np, bound),
                                 1 << 12);
  }

  /// The offline container `mode` of the trace.
  static PardaResult analyze_offline(IngestMode mode, int np,
                                     std::uint64_t bound) {
    const std::unique_ptr<TraceSource> source = open_offline_source(
        mode == IngestMode::kTrz ? *trz_path_ : *trc_path_, mode);
    comm::WorkerPool pool(np);
    return parda_analyze_source_on(pool, *source, options_for(np, bound));
  }

  /// Partitions `source` at several rank counts and checks that the rank
  /// views tile the trace contiguously in rank order, and that every view
  /// points into [lo, hi) — the source's own storage.
  static void expect_views_tile_trace(TraceSource& source, const void* lo,
                                      const void* hi) {
    EXPECT_EQ(source.total_references(), trace_->size());
    const auto* base = static_cast<const std::uint8_t*>(lo);
    const auto* end = static_cast<const std::uint8_t*>(hi);
    for (const int np : {1, 2, 3, 4, 7}) {
      source.partition(np);
      std::uint64_t covered = 0;
      for (int r = 0; r < np; ++r) {
        const std::span<const Addr> view = source.rank_view(r);
        const auto at = static_cast<std::size_t>(covered);
        covered += view.size();
        if (view.empty()) continue;
        // Zero-copy: the span points into the storage, not a buffer.
        const auto* first = reinterpret_cast<const std::uint8_t*>(
            view.data());
        const auto* last = reinterpret_cast<const std::uint8_t*>(
            view.data() + view.size());
        EXPECT_GE(first, base);
        EXPECT_LE(last, end);
        // Contiguous tiling: rank r's refs are exactly trace[at..), where
        // `at` counts the refs of ranks 0..r-1.
        ASSERT_LE(covered, trace_->size()) << "np=" << np << " rank=" << r;
        EXPECT_TRUE(std::equal(view.begin(), view.end(),
                               trace_->begin() +
                                   static_cast<std::ptrdiff_t>(at)))
            << "np=" << np << " rank=" << r;
      }
      EXPECT_EQ(covered, trace_->size()) << "np=" << np;
    }
  }

  static std::vector<Addr>* trace_;
  static std::string* trc_path_;
  static std::string* trz_path_;
};

std::vector<Addr>* IngestTest::trace_ = nullptr;
std::string* IngestTest::trc_path_ = nullptr;
std::string* IngestTest::trz_path_ = nullptr;

class IngestEquivalenceTest
    : public IngestTest,
      public ::testing::WithParamInterface<std::tuple<int, std::uint64_t>> {};

TEST_P(IngestEquivalenceTest, AllSourcesBitIdentical) {
  const auto [np, bound] = GetParam();
  SpanTraceSource in_memory(*trace_);
  const PardaResult span = parda_analyze(in_memory, options_for(np, bound));
  const PardaResult pipe = analyze_streamed(np, bound);
  const PardaResult mmap = analyze_offline(IngestMode::kMmap, np, bound);
  const PardaResult trz = analyze_offline(IngestMode::kTrz, np, bound);

  const Histogram expected = bound == 0 ? olken_analysis(*trace_)
                                        : bounded_analysis(*trace_, bound);
  EXPECT_TRUE(span.hist == expected) << "span np=" << np << " B=" << bound;
  EXPECT_TRUE(pipe.hist == expected) << "pipe np=" << np << " B=" << bound;
  EXPECT_TRUE(mmap.hist == expected) << "mmap np=" << np << " B=" << bound;
  EXPECT_TRUE(trz.hist == expected) << "trz np=" << np << " B=" << bound;
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndBounds, IngestEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(std::uint64_t{0},
                                         std::uint64_t{256})));

TEST_F(IngestTest, MmapViewsAliasTheMappingAndTileTheTrace) {
  MmapTraceSource source(*trc_path_);
  const auto* map = static_cast<const std::uint8_t*>(source.map_base());
  expect_views_tile_trace(source, map, map + source.map_bytes());
}

TEST_F(IngestTest, SpanViewsAliasTheTraceAndTileIt) {
  SpanTraceSource source(*trace_);
  expect_views_tile_trace(source, trace_->data(),
                          trace_->data() + trace_->size());
}

TEST_F(IngestTest, MmapViewReadableForSourceLifetime) {
  // Touch every element of every view and checksum it against the trace:
  // under ASan/valgrind this patrols both mapping edges for out-of-bounds
  // reads; logically it proves the views carry the exact file content.
  MmapTraceSource source(*trc_path_);
  source.partition(3);
  Addr expect_sum = 0;
  for (const Addr a : *trace_) expect_sum += a;
  Addr sum = 0;
  for (int r = 0; r < 3; ++r) {
    for (const Addr a : source.rank_view(r)) sum += a;
  }
  EXPECT_EQ(sum, expect_sum);
}

TEST_F(IngestTest, TrzChunkRunsAreContiguousAndComplete) {
  ChunkedTrzSource source(*trz_path_);
  const std::uint64_t chunks = source.file().num_chunks();
  ASSERT_EQ(chunks, 12u);  // 6000 refs at 512/chunk
  for (const int np : {1, 2, 4, 5, 16}) {  // 16 > chunks: empty tail ranks
    source.partition(np);
    std::uint64_t next_chunk = 0;
    std::uint64_t next_ref = 0;
    for (int r = 0; r < np; ++r) {
      const auto [first, count] = source.assigned_chunks(r);
      EXPECT_EQ(first, next_chunk) << "np=" << np << " rank=" << r;
      next_chunk += count;
      const std::span<const Addr> view = source.rank_view(r);
      const auto at = static_cast<std::size_t>(next_ref);
      next_ref += view.size();
      ASSERT_LE(next_ref, trace_->size()) << "np=" << np << " rank=" << r;
      // Decoded content matches trace[at..), byte for byte.
      for (std::size_t i = 0; i < view.size(); ++i) {
        ASSERT_EQ(view[i], (*trace_)[at + i])
            << "np=" << np << " rank=" << r << " i=" << i;
      }
    }
    EXPECT_EQ(next_chunk, chunks) << "np=" << np;
    EXPECT_EQ(next_ref, trace_->size()) << "np=" << np;
  }
}

TEST_F(IngestTest, TrzSourceReusableAcrossAnalyses) {
  // The per-rank arenas persist across partition()/analysis cycles; the
  // results must not.  (A stale arena would double-append references.)
  comm::WorkerPool pool(4);
  ChunkedTrzSource source(*trz_path_);
  PardaOptions options;
  options.num_procs = 4;
  const PardaResult first = parda_analyze_source_on(pool, source, options);
  options.num_procs = 2;
  const PardaResult second = parda_analyze_source_on(pool, source, options);
  const Histogram expected = olken_analysis(*trace_);
  EXPECT_TRUE(first.hist == expected);
  EXPECT_TRUE(second.hist == expected);
}

TEST_F(IngestTest, PipeSourceRunsTheStreamingAlgorithm) {
  PipeTraceSource source(2048, [&](TracePipe& pipe) { pipe.write(*trace_); });
  EXPECT_FALSE(source.offline());
  comm::WorkerPool pool(2);
  PardaOptions options;
  options.num_procs = 2;
  const PardaResult result = parda_analyze_source_on(pool, source, options);
  EXPECT_TRUE(result.hist == olken_analysis(*trace_));
}

TEST_F(IngestTest, SessionAnalyzeAndAnalyzeFileAgree) {
  core::PardaRuntime runtime;
  PardaOptions options;
  options.num_procs = 4;
  auto session = runtime.session(options);
  MmapTraceSource source(*trc_path_);
  const PardaResult via_source = session.analyze(source);
  const PardaResult via_file = session.analyze_file(*trc_path_, 1 << 12);
  ChunkedTrzSource trz(*trz_path_);
  const PardaResult via_trz = session.analyze(trz);
  EXPECT_TRUE(via_source.hist == via_file.hist);
  EXPECT_TRUE(via_source.hist == via_trz.hist);
  EXPECT_TRUE(via_source.hist == session.analyze(*trace_).hist);
}

TEST_F(IngestTest, ZeroCopyProofInMetrics) {
  obs::set_enabled(true);
  auto& reg = obs::registry();

  reg.reset_values();
  analyze_offline(IngestMode::kMmap, 4, 0);
  EXPECT_EQ(reg.counter_total("ingest.bytes_copied"), 0u);
  EXPECT_GE(reg.counter_total("ingest.bytes_mapped"),
            trace_->size() * sizeof(Addr));

  reg.reset_values();
  analyze_offline(IngestMode::kTrz, 4, 0);
  EXPECT_EQ(reg.counter_total("ingest.bytes_copied"), 0u);
  EXPECT_EQ(reg.counter_total("ingest.chunks_assigned"), 12u);
  EXPECT_GT(reg.counter_total("ingest.bytes_decoded"), 0u);

  reg.reset_values();
  analyze_streamed(4, 0);
  EXPECT_EQ(reg.counter_total("ingest.bytes_copied"),
            trace_->size() * sizeof(Addr));

  reg.reset_values();
  obs::set_enabled(false);
}

TEST_F(IngestTest, OfflineAnalysisCopiesNoCommBytes) {
  // Next to the ingest proof above, the comm half: every message of the
  // offline algorithm on the threads wire — the local-infinity lists and
  // the closing reduction of histograms and profiles — moves its buffer,
  // so the run's RankStats count no copied byte.
  for (const std::uint64_t bound : {std::uint64_t{0}, std::uint64_t{128}}) {
    for (const int np : {1, 2, 4}) {
      SCOPED_TRACE("np=" + std::to_string(np) +
                   " bound=" + std::to_string(bound));
      const PardaResult span = parda_analyze(*trace_, options_for(np, bound));
      EXPECT_EQ(span.stats.total_bytes_copied(), 0u);
      const PardaResult mmap = analyze_offline(IngestMode::kMmap, np, bound);
      EXPECT_EQ(mmap.stats.total_bytes_copied(), 0u);
    }
  }
}

TEST_F(IngestTest, OfflineSourceRejectsStreamingInterface) {
  TracePipe pipe(64);  // for the produce() calls, which must throw
  MmapTraceSource mmap(*trc_path_);
  EXPECT_THROW(mmap.pipe_words(), CheckError);
  EXPECT_THROW(mmap.produce(pipe), CheckError);
  PipeTraceSource streaming(64, [](TracePipe&) {});
  EXPECT_THROW(streaming.partition(2), CheckError);
  EXPECT_THROW(streaming.rank_view(0), CheckError);
  EXPECT_THROW(streaming.total_references(), CheckError);
  SpanTraceSource in_memory(*trace_);
  EXPECT_THROW(in_memory.pipe_words(), CheckError);
  EXPECT_THROW(in_memory.produce(pipe), CheckError);
  EXPECT_THROW(in_memory.rank_view(0), CheckError);  // before partition()
}

}  // namespace
}  // namespace parda

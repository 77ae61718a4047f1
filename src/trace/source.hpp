// TraceSource: how references reach the ranks.
//
// The paper's offline Algorithm 3 and streamed Algorithms 5-6 differ only
// in how references reach a rank: contiguous chunks up front, or pipe
// blocks scattered per phase. TraceSource is that one choice, and the one
// analysis driver (parda_analyze_source_on, core/parda.hpp) dispatches on
// it; every other entry point wraps its input in a source first:
//
//   - SpanTraceSource   — offline, non-owning: a caller's in-memory trace.
//                         Holds the one copy of Algorithm 3's ceil-division
//                         split; each rank analyzes a subspan.
//   - MmapTraceSource   — zero-copy offline .bin ingest: a SpanTraceSource
//                         over the file's validated mapping, madvise'd
//                         SEQUENTIAL. No pipe, no producer thread, no copy.
//   - ChunkedTrzSource  — chunked-compressed offline ingest: a v2 .trz
//                         archive's chunks are assigned to ranks in
//                         contiguous runs and each rank decodes its own
//                         chunks, in parallel, into a per-rank arena that
//                         is reused across analyses.
//   - PipeTraceSource   — the streaming/online source: a producer that
//                         the driver runs on its own thread, writing into
//                         a TracePipe (the Figure 3 shape). The only choice
//                         when the trace is unbounded or arrives live; runs
//                         the multi-phase Algorithm 5.
//
// Offline sources partition the trace once per job (partition(np), driver
// thread), then every rank asks for its view from its own thread
// (rank_view(rank)) — which is exactly where ChunkedTrzSource does its
// decoding, so decompression parallelizes with np for free. A view is a
// plain span of references: the views tile the trace in rank order, and
// that order is all the algorithm needs. Views stay valid until the next
// partition() or the source's destruction; they must never outlive the
// source (the mmap case would fault).
//
// Ingest telemetry (the `ingest.*` metrics, DESIGN.md "Ingest"):
//   ingest.bytes_mapped    bytes of file mapped (mmap + trz)
//   ingest.bytes_decoded   compressed payload bytes decoded (trz)
//   ingest.bytes_copied    raw reference bytes memcpy'd (pipe path only —
//                          the zero-copy proof is this staying 0)
//   ingest.chunks_assigned trz chunks handed to ranks
//   ingest.decode          per-rank decode wall time (trz)
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/mmap_file.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_pipe.hpp"
#include "util/types.hpp"

namespace parda {

/// The two offline containers of an on-disk trace: a binary .trc/.bin
/// file, mapped, or a chunked v2 .trz archive, decoded per rank.
enum class IngestMode { kMmap, kTrz };

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Whether the whole trace is addressable up front. Offline sources
  /// implement partition()/rank_view(); streaming sources implement
  /// pipe_words()/produce().
  virtual bool offline() const noexcept = 0;

  /// Offline only: total references in the trace.
  virtual std::uint64_t total_references() const;

  /// Offline only: splits the trace into np contiguous per-rank ranges.
  /// Called once per job from the driver thread, before any rank_view().
  virtual void partition(int np);

  /// Offline only: rank's disjoint view, called from the rank's own
  /// thread (concurrent across ranks — this is where ChunkedTrzSource
  /// decodes). Rank r's view directly follows rank r-1's in the trace.
  /// Valid until the next partition() or destruction.
  virtual std::span<const Addr> rank_view(int rank);

  /// Streaming only: the capacity of the pipe the driver makes for each
  /// analysis.
  virtual std::size_t pipe_words() const;

  /// Streaming only: writes the whole trace into `pipe`. The driver calls
  /// it once per analysis, on a producer thread of its own.
  virtual void produce(TracePipe& pipe);
};

/// The streaming/online source: a producer (an instrumented program, a file
/// reader, a generator) that writes the trace into a pipe of pipe_words and
/// returns at its end, or throws; the driver closes or poisons the pipe.
/// Each analysis gets a fresh pipe and runs the producer once, so the
/// source is reusable like the offline ones.
class PipeTraceSource final : public TraceSource {
 public:
  PipeTraceSource(std::size_t pipe_words,
                  std::function<void(TracePipe&)> producer)
      : pipe_words_(pipe_words), producer_(std::move(producer)) {}

  bool offline() const noexcept override { return false; }
  std::size_t pipe_words() const override { return pipe_words_; }
  void produce(TracePipe& pipe) override { producer_(pipe); }

 private:
  std::size_t pipe_words_;
  std::function<void(TracePipe&)> producer_;
};

/// Offline source over a caller-owned in-memory trace, split with the
/// ceil-division of Algorithm 3: rank p owns global positions
/// [p*ceil(N/np), ...). Non-owning — the trace must outlive the source.
class SpanTraceSource : public TraceSource {
 public:
  explicit SpanTraceSource(std::span<const Addr> refs) : refs_(refs) {}

  bool offline() const noexcept override { return true; }
  std::uint64_t total_references() const override { return refs_.size(); }
  void partition(int np) override;
  std::span<const Addr> rank_view(int rank) override;

 protected:
  /// For subclasses that own the storage: they set refs_ once it is
  /// validated.
  SpanTraceSource() = default;

  std::span<const Addr> refs_;

 private:
  int np_ = 0;
};

/// Zero-copy offline source over a binary (.trc/.bin) trace: maps the file
/// once and, as a SpanTraceSource over the mapping, hands each rank a
/// disjoint view straight into it.
class MmapTraceSource final : public SpanTraceSource {
 public:
  /// Maps the trace and validates its header with check_trace_header, the
  /// check BinaryTraceReader runs.
  explicit MmapTraceSource(const std::string& path);

  /// The mapped byte range, exposed so tests can prove rank views alias
  /// the mapping (zero copies) instead of pointing at private buffers.
  const void* map_base() const noexcept { return map_.data(); }
  std::size_t map_bytes() const noexcept { return map_.size(); }

 private:
  MappedFile map_;
};

/// Chunked-compressed offline source over a v2 .trz archive: contiguous
/// chunk runs per rank, decoded in parallel on the ranks' own threads into
/// per-rank arenas that persist (and keep their capacity) across
/// partitions and analyses.
class ChunkedTrzSource final : public TraceSource {
 public:
  explicit ChunkedTrzSource(const std::string& path);

  bool offline() const noexcept override { return true; }
  std::uint64_t total_references() const override {
    return file_.total_references();
  }
  void partition(int np) override;
  std::span<const Addr> rank_view(int rank) override;

  const ChunkedTrzFile& file() const noexcept { return file_; }
  /// The chunk range assigned to `rank` by the last partition(), as
  /// [first, first + count): exposed for the balance tests.
  std::pair<std::uint64_t, std::uint64_t> assigned_chunks(int rank) const;

 private:
  struct Assignment {
    std::uint64_t first_chunk = 0;
    std::uint64_t num_chunks = 0;
    std::uint64_t refs = 0;
  };

  ChunkedTrzFile file_;
  std::vector<Assignment> plan_;
  std::vector<std::vector<Addr>> arenas_;  // one per rank, reused
};

/// Opens the offline source for the container `mode` over `path`: an
/// MmapTraceSource for kMmap, a ChunkedTrzSource for kTrz.
std::unique_ptr<TraceSource> open_offline_source(const std::string& path,
                                                 IngestMode mode);

}  // namespace parda

// Parda: parallel reuse distance analysis (paper Algorithms 3-7).
//
// One driver: parda_analyze_source_on runs an analysis of any TraceSource
// (trace/source.hpp) on a WorkerPool. The source picks the algorithm:
//  - offline sources (in-memory span, mmap, chunked .trz) hand each rank a
//    contiguous chunk up front: Algorithm 3, with the space-optimized merge
//    of Algorithm 4 and the cache bound of Algorithm 7;
//  - the pipe source's producer writes into a pipe that rank 0 drains in
//    phases and scatters: the online Algorithms 5-6 with the rank-reversal
//    optimization, reproducing the Figure 3 framework: producer -> pipe ->
//    rank 0 -> scatter -> ranks -> merge -> reduce.
// parda_analyze wraps the driver in a transient pool; parda_analyze_file_on
// (core/file_analysis.hpp) streams an on-disk trace through a pipe source,
// and core::AnalysisSession runs the driver on a persistent runtime. Every
// rank runs a RankState (core/rank_state.hpp) on a FenwickIndex; the rank
// bodies live in parda.cpp.
//
// Every run returns the histogram plus per-rank work statistics (used for
// critical-path scaling reports).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "comm/worker_pool.hpp"
#include "hist/histogram.hpp"
#include "trace/source.hpp"
#include "util/types.hpp"

namespace parda {

struct PardaOptions {
  /// Number of ranks (the paper's np). Each becomes one thread.
  int num_procs = 4;
  /// Cache bound B of Algorithm 7 in distinct elements; kUnbounded for the
  /// exact full-depth analysis.
  std::uint64_t bound = kUnbounded;
  /// Streaming only: per-rank chunk size C; each phase consumes np*C
  /// references (Algorithm 5), which must fit in a size_t.
  std::size_t chunk_words = 1 << 16;
  /// Fault-tolerance knobs forwarded to comm::run: per-op deadlines, the
  /// stall watchdog, and deterministic fault injection. The default is the
  /// historical wait-forever behavior.
  comm::RunOptions run_options;
};

/// Per-rank algorithm counters (beyond the comm-level RankStats): where
/// the work went, for the load-balancing analysis of Algorithms 5-6.
struct RankProfile {
  std::uint64_t chunk_refs = 0;         // own-chunk references processed
  std::uint64_t records_received = 0;   // incoming local infinities
  std::uint64_t records_forwarded = 0;  // survivors sent further left
  std::uint64_t hits_resolved = 0;      // finite distances recorded
  std::uint64_t peak_resident = 0;      // max tree size observed
  std::uint64_t phases = 0;             // phases participated in (stream)
};

struct PardaResult {
  Histogram hist;
  comm::RunStats stats;
  std::vector<RankProfile> profiles;  // indexed by physical rank
};

/// The closing reduction of every analysis (the reduce_sum of Algorithm
/// 3): a binomial tree onto rank 0 in which each other rank sends one
/// message, its subtree's merged histogram words followed by its subtree's
/// profiles in rank order. Rank 0 stores the merged histogram and every
/// rank's profile into `result`; other ranks leave it alone. Rank 0 throws
/// CheckError on a malformed message, or when the profiles disagree with
/// the histogram's mass: the chunk references must sum to its total, the
/// resolved hits to its finite total, and the records forwarded to the
/// records received.
void reduce_results(comm::Comm& comm, const Histogram& hist,
                    const RankProfile& profile, PardaResult& result);

/// The analysis driver, on a caller-owned WorkerPool: the only place an
/// analysis job is submitted. Offline sources run Algorithm 3 over their
/// rank views; streaming sources run the multi-phase pipe algorithm
/// (Algorithms 5-6, whose state reduction relies on the disjoint residency
/// that Algorithm 4's merge leaves), fed by their producer. The result
/// equals the sequential analysis exactly (unbounded), or the bounded
/// sequential analysis when options.bound is set. The source must stay
/// alive for the call (rank views alias its storage) and may be reused
/// across calls — ChunkedTrzSource keeps its per-rank decode arenas warm,
/// and a PipeTraceSource runs its producer again.
///
/// A streaming source gets a fresh pipe, and its producer runs on a thread
/// of its own in the process that hosts rank 0 (the pipe's only reader).
/// The pipe is closed when the producer returns and poisoned when either
/// side throws, so a failing rank wakes rank 0 from it at once. The
/// producer is joined before this returns, and its own exception is
/// rethrown first, as the root cause.
PardaResult parda_analyze_source_on(comm::WorkerPool& pool,
                                    TraceSource& source,
                                    const PardaOptions& options);

/// One-shot analysis of a source on a transient runtime. Long-lived
/// callers should hold a core::PardaRuntime (or a raw WorkerPool) to
/// amortize thread spawning.
PardaResult parda_analyze(TraceSource& source, const PardaOptions& options);

/// One-shot offline analysis of an in-memory trace (Algorithm 3): chunk p
/// owns global positions [p*ceil(N/np), ...) — see SpanTraceSource.
PardaResult parda_analyze(std::span<const Addr> trace,
                          const PardaOptions& options);

}  // namespace parda

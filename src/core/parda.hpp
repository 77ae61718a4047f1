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
// (core/file_analysis.hpp) and core::AnalysisSession build the source for
// on-disk traces and persistent runtimes.
//
// Every run returns the histogram plus per-rank work statistics (used for
// critical-path scaling reports).
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "comm/comm.hpp"
#include "comm/worker_pool.hpp"
#include "core/messages.hpp"
#include "core/rank_state.hpp"
#include "hist/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "trace/source.hpp"
#include "trace/trace_pipe.hpp"
#include "tree/fenwick.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace parda {

struct PardaOptions {
  /// Number of ranks (the paper's np). Each becomes one thread.
  int num_procs = 4;
  /// Cache bound B of Algorithm 7 in distinct elements; kUnbounded for the
  /// exact full-depth analysis.
  std::uint64_t bound = kUnbounded;
  /// Use the space-optimized local-infinity processing (Algorithm 4).
  /// Bounded and streaming modes require it.
  bool space_optimized = true;
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

/// Reduces each rank's histogram onto `root` with a binomial tree
/// (the reduce_sum of Algorithm 3); returns the merged histogram at root
/// and an empty histogram elsewhere.
Histogram reduce_histogram(comm::Comm& comm, const Histogram& mine, int root);

namespace detail {

/// The merge stage driven at virtual rank v of np: runs the remaining
/// np - v rounds of Algorithm 3's while-loop after the rank has processed
/// its own chunk. phys_of maps virtual to physical ranks (identity in the
/// offline algorithm; phase-reversed when streaming).
template <OrderStatTree Tree, typename PhysOf>
void run_merge_rounds(comm::Comm& comm, RankState<Tree>& state, int virt,
                      PhysOf&& phys_of, std::uint64_t* forwarded = nullptr) {
  const int np = comm.size();
  for (int round = 0; round < np - virt; ++round) {
    if (virt > 0) {
      std::vector<Addr> outgoing = state.take_local_infinities();
      if (forwarded != nullptr) *forwarded += outgoing.size();
      // Zero-copy: the record list is moved into the message and the
      // receiving rank processes it in place through a View.
      comm.send(phys_of(virt - 1), kTagInfinities, std::move(outgoing));
    } else {
      state.flush_global_infinities();
    }
    if (virt < np - 1 && round < np - virt - 1) {
      const comm::View<Addr> incoming =
          comm.recv_view<Addr>(phys_of(virt + 1), kTagInfinities);
      state.process_incoming(incoming.span());
    }
  }
}

/// End-of-rank metrics publication: the rank's RankProfile plus the
/// structural counters of its analysis state, attributed to the calling
/// rank's shard. Cold path (runs once per rank per analysis); the engine.*
/// totals are designed to agree with the result histogram:
/// engine.chunk_refs == hist.total(), engine.hits_resolved ==
/// hist.finite_total().
template <OrderStatTree Tree>
void publish_rank_metrics(const RankProfile& profile,
                          const RankState<Tree>& state) {
  if (!obs::enabled()) return;
  auto& reg = obs::registry();
  reg.counter("engine.chunk_refs").add(profile.chunk_refs);
  reg.counter("engine.records_received").add(profile.records_received);
  reg.counter("engine.records_forwarded").add(profile.records_forwarded);
  reg.counter("engine.hits_resolved").add(profile.hits_resolved);
  reg.counter("engine.infinities").add(state.hist().infinities());
  reg.counter("engine.phases").add(profile.phases);
  reg.counter("engine.hash_probes").add(state.table().probe_count());
  if constexpr (requires { state.tree().rotation_count(); }) {
    reg.counter("engine.tree_rotations").add(state.tree().rotation_count());
  }
  if constexpr (requires { state.tree().splay_count(); }) {
    reg.counter("engine.tree_splays").add(state.tree().splay_count());
  }
  reg.gauge("engine.peak_resident").set_max(profile.peak_resident);
}

/// Gathers each rank's profile at rank 0 (physical order). Each profile
/// travels as a moved one-element vector, so the gather copies no bytes.
inline std::vector<RankProfile> gather_profiles(comm::Comm& comm,
                                                const RankProfile& mine) {
  static_assert(std::is_trivially_copyable_v<RankProfile>);
  const auto pieces =
      comm.gather(std::vector<RankProfile>{mine}, 0, kTagProfile);
  std::vector<RankProfile> out;
  out.reserve(pieces.size());
  for (const auto& piece : pieces) {
    if (!piece.empty()) out.push_back(piece[0]);
  }
  return out;
}

/// The per-rank body of the offline algorithm (Algorithm 3), one call per
/// rank inside a comm job: the rank pulls its own disjoint view from the
/// partitioned source (for ChunkedTrzSource that call IS the per-rank
/// parallel decode, recorded under an "ingest" span), analyzes it, and
/// joins the merge and reduce. The views must tile the trace contiguously
/// in rank order.
template <OrderStatTree Tree>
void offline_rank_body(comm::Comm& comm, TraceSource& source,
                       const PardaOptions& options, Histogram& result,
                       std::vector<RankProfile>& profiles) {
  std::span<const Addr> view;
  {
    obs::SpanScope span("ingest");
    view = source.rank_view(comm.rank());
  }
  RankState<Tree> state(options.bound, options.space_optimized);
  RankProfile profile;

  {
    obs::SpanScope span("analyze");
    state.begin_merge_stage();
    state.process_own_block(view);
  }
  profile.chunk_refs = view.size();

  {
    obs::SpanScope span("infinity-pipeline");
    detail::run_merge_rounds(comm, state, comm.rank(),
                             [](int virt) { return virt; },
                             &profile.records_forwarded);
  }
  profile.records_received = state.received_count();
  profile.hits_resolved = state.hist().finite_total();
  profile.peak_resident = state.peak_resident();
  detail::publish_rank_metrics(profile, state);

  std::vector<RankProfile> gathered;
  Histogram reduced;
  {
    obs::SpanScope span("reduce");
    gathered = detail::gather_profiles(comm, profile);
    reduced = reduce_histogram(comm, state.hist(), 0);
  }
  if (comm.rank() == 0) {
    result = std::move(reduced);
    profiles = std::move(gathered);
  }
}

/// The per-rank body of the streaming algorithm (Algorithms 5-6): phase
/// intake + scatter, chunk processing, merge rounds on the virtual
/// topology, state reduction with rank reversal. Rank 0 drains the pipe in
/// phases of np*C references; after each full phase all resident state
/// (under a bound, only its B most recent addresses) is reduced onto the
/// virtual rank np-1, which becomes virtual rank 0 of the next phase, so
/// the global state never travels. A short phase is the last one, and
/// skips the reduction.
template <OrderStatTree Tree>
void stream_rank_body(comm::Comm& comm, TracePipe& pipe,
                      const PardaOptions& options, Histogram& result,
                      std::vector<RankProfile>& profiles) {
  const int np = comm.size();
  const std::size_t chunk = options.chunk_words;
  RankState<Tree> state(options.bound, /*space_optimized=*/true);
  RankProfile profile;
  const int me = comm.rank();
  bool reversed = false;  // virtual<->physical map flips every phase
  const auto phys_of = [&](int virt) {
    return reversed ? np - 1 - virt : virt;
  };
  const auto virt_of = [&](int phys) {
    return reversed ? np - 1 - phys : phys;
  };
  std::uint32_t phase_no = 0;

  while (true) {
    // Attribute everything this thread records during the phase — notably
    // the recv-wait/barrier-wait spans inside the comm layer — to
    // phase_no, so the SpanReport can decompose each phase into self vs
    // blocked time per rank.
    obs::ScopedThreadPhase phase_scope(phase_no);
    // --- Phase intake: rank 0 reads ONE block from the pipe and
    // scatters per-rank (offset, count) views of it — the block is never
    // copied again, regardless of np (slices are indexed by physical
    // rank via the virtual mapping). The span is recorded manually
    // because phase_words and the chunk view outlive this section.
    const std::int64_t scatter_t0 =
        obs::enabled() ? obs::tracer().now_ns() : -1;
    std::vector<Addr> block;
    std::vector<std::uint64_t> header;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> slices;
    if (me == 0) {
      block = pipe.read_words(chunk * static_cast<std::size_t>(np));
      header = {block.size()};
      slices.resize(static_cast<std::size_t>(np));
      for (int v = 0; v < np; ++v) {
        const std::size_t lo = std::min(static_cast<std::size_t>(v) * chunk,
                                        block.size());
        const std::size_t hi = std::min(lo + chunk, block.size());
        slices[static_cast<std::size_t>(phys_of(v))] = {lo, hi - lo};
      }
    }
    const std::uint64_t phase_words =
        comm.broadcast(std::move(header), 0, kTagControl).at(0);
    const comm::View<Addr> mine = comm.scatterv_view(
        std::move(block),
        std::span<const std::pair<std::uint64_t, std::uint64_t>>(slices), 0,
        kTagChunk);
    if (scatter_t0 >= 0) {
      obs::tracer().record(scatter_t0, obs::tracer().now_ns(), "scatter",
                           phase_no);
    }
    if (phase_words == 0) break;

    // --- Chunk processing (Algorithm 7 / modified stack_dist).
    const int virt = virt_of(me);
    {
      obs::SpanScope span("analyze", phase_no);
      state.begin_merge_stage();
      state.process_own_block(mine.span());
    }
    profile.chunk_refs += mine.size();
    ++profile.phases;

    // --- Merge rounds (Algorithm 3's loop on virtual topology).
    {
      obs::SpanScope span("infinity-pipeline", phase_no);
      detail::run_merge_rounds(comm, state, virt, phys_of,
                               &profile.records_forwarded);
    }
    profile.records_received += state.received_count();
    if (phase_words < chunk * static_cast<std::uint64_t>(np)) {
      // Short phase: the pipe is exhausted; everyone agrees because
      // phase_words was broadcast. No phase follows to read the state, so
      // the state reduction is skipped.
      break;
    }

    // --- State reduction onto virtual np-1 (Algorithm 6): the exported
    // state moves into the message and is imported through a view. The
    // holder imports each part as it arrives, newest first (virtual ranks
    // np-2 down to 0, the order in which they finish merging), so every
    // part is keyed below everything it already holds; under a bound it
    // keys only what still fits under B.
    {
      obs::SpanScope span("reduce", phase_no);
      const int holder_phys = phys_of(np - 1);
      if (virt != np - 1) {
        comm.send(holder_phys, kTagState, state.export_state());
      } else {
        for (int v = np - 2; v >= 0; --v) {
          state.import_state(
              comm.recv_view<Addr>(phys_of(v), kTagState).span());
        }
      }
    }

    reversed = !reversed;  // the holder is virtual rank 0 next phase
    ++phase_no;
  }

  profile.hits_resolved = state.hist().finite_total();
  profile.peak_resident = state.peak_resident();
  detail::publish_rank_metrics(profile, state);
  std::vector<RankProfile> gathered;
  Histogram reduced;
  {
    obs::SpanScope span("final-reduce");
    gathered = detail::gather_profiles(comm, profile);
    reduced = reduce_histogram(comm, state.hist(), 0);
  }
  if (me == 0) {
    result = std::move(reduced);
    profiles = std::move(gathered);
  }
}

/// Submits parda_analyze_source_on's job: rank_body runs on every rank,
/// with a null pipe for an offline source. A streaming source gets a fresh
/// pipe, and its producer runs on a thread of its own in the process that
/// hosts rank 0 (the pipe's only reader). The pipe is closed when the
/// producer returns and poisoned when either side throws; the producer is
/// joined before this returns, and its own exception is rethrown first.
comm::RunStats run_analysis_job(
    comm::WorkerPool& pool, TraceSource& source, const PardaOptions& options,
    const std::function<void(comm::Comm&, TracePipe*)>& rank_body);

}  // namespace detail

/// The analysis driver, on a caller-owned WorkerPool: the only place an
/// analysis job is submitted. Offline sources run Algorithm 3 over their
/// rank views; streaming sources run the multi-phase pipe algorithm
/// (Algorithms 5-6, which need the space optimization: the state reduction
/// relies on the disjoint-residency property of Algorithm 4), fed by their
/// producer. The result equals the sequential analysis exactly
/// (unbounded), or the bounded sequential analysis when options.bound is
/// set. The source must stay alive for the call (rank views alias its
/// storage) and may be reused across calls — ChunkedTrzSource keeps its
/// per-rank decode arenas warm, and a PipeTraceSource runs its producer
/// again.
template <OrderStatTree Tree = FenwickIndex>
PardaResult parda_analyze_source_on(comm::WorkerPool& pool,
                                    TraceSource& source,
                                    const PardaOptions& options) {
  Histogram result;
  std::vector<RankProfile> profiles;
  comm::RunStats stats = detail::run_analysis_job(
      pool, source, options, [&](comm::Comm& comm, TracePipe* pipe) {
        if (pipe == nullptr) {
          detail::offline_rank_body<Tree>(comm, source, options, result,
                                          profiles);
        } else {
          detail::stream_rank_body<Tree>(comm, *pipe, options, result,
                                         profiles);
        }
      });
  return PardaResult{std::move(result), std::move(stats),
                     std::move(profiles)};
}

/// One-shot analysis of a source on a transient runtime. Long-lived
/// callers should hold a core::PardaRuntime (or a raw WorkerPool) to
/// amortize thread spawning.
template <OrderStatTree Tree = FenwickIndex>
PardaResult parda_analyze(TraceSource& source, const PardaOptions& options) {
  comm::WorkerPool pool(options.num_procs);
  return parda_analyze_source_on<Tree>(pool, source, options);
}

/// One-shot offline analysis of an in-memory trace (Algorithm 3): chunk p
/// owns global positions [p*ceil(N/np), ...) — see SpanTraceSource.
template <OrderStatTree Tree = FenwickIndex>
PardaResult parda_analyze(std::span<const Addr> trace,
                          const PardaOptions& options) {
  SpanTraceSource source(trace);
  return parda_analyze<Tree>(source, options);
}

/// Convenience: sequential Olken analysis through the same result type,
/// for side-by-side comparisons in benches.
Histogram sequential_reference(std::span<const Addr> trace,
                               std::uint64_t bound = kUnbounded);

}  // namespace parda

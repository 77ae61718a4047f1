#include "core/parda.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/messages.hpp"
#include "core/rank_state.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "trace/trace_pipe.hpp"
#include "util/check.hpp"

namespace parda {

namespace {

/// The physical rank of virtual rank `virt` of np. A stream flips the map
/// every phase; it is its own inverse, so it also gives a physical rank's
/// virtual rank.
int phys_of(int virt, int np, bool reversed) {
  return reversed ? np - 1 - virt : virt;
}

/// The merge stage driven at virtual rank v of np: runs the remaining
/// np - v rounds of Algorithm 3's while-loop after the rank has processed
/// its own chunk. `reversed` is the phase's virtual-to-physical map (never
/// reversed in the offline algorithm).
void run_merge_rounds(comm::Comm& comm, RankState& state, int virt,
                      bool reversed, std::uint64_t& forwarded) {
  const int np = comm.size();
  for (int round = 0; round < np - virt; ++round) {
    if (virt > 0) {
      std::vector<Addr> outgoing = state.take_local_infinities();
      forwarded += outgoing.size();
      // Zero-copy: the record list is moved into the message and the
      // receiving rank processes it in place through a View.
      comm.send(phys_of(virt - 1, np, reversed), kTagInfinities,
                std::move(outgoing));
    } else {
      state.flush_global_infinities();
    }
    if (virt < np - 1 && round < np - virt - 1) {
      const comm::View<Addr> incoming = comm.recv_view<Addr>(
          phys_of(virt + 1, np, reversed), kTagInfinities);
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
void publish_rank_metrics(const RankProfile& profile,
                          const RankState& state) {
  if (!obs::enabled()) return;
  auto& reg = obs::registry();
  reg.counter("engine.chunk_refs").add(profile.chunk_refs);
  reg.counter("engine.records_received").add(profile.records_received);
  reg.counter("engine.records_forwarded").add(profile.records_forwarded);
  reg.counter("engine.hits_resolved").add(profile.hits_resolved);
  reg.counter("engine.infinities").add(state.hist().infinities());
  reg.counter("engine.phases").add(profile.phases);
  reg.counter("engine.hash_probes").add(state.table().probe_count());
  reg.gauge("engine.peak_resident").set_max(profile.peak_resident);
}

/// The per-rank body of the offline algorithm (Algorithm 3), one call per
/// rank inside a comm job: the rank pulls its own disjoint view from the
/// partitioned source (for ChunkedTrzSource that call IS the per-rank
/// parallel decode, recorded under an "ingest" span), analyzes it, and
/// joins the merge and reduce. The views must tile the trace contiguously
/// in rank order.
void offline_rank_body(comm::Comm& comm, TraceSource& source,
                       const PardaOptions& options, PardaResult& result) {
  std::span<const Addr> view;
  {
    obs::SpanScope span("ingest");
    view = source.rank_view(comm.rank());
  }
  RankState state(options.bound);
  RankProfile profile;

  {
    obs::SpanScope span("analyze");
    state.begin_merge_stage();
    state.process_own_block(view);
  }
  profile.chunk_refs = view.size();

  {
    obs::SpanScope span("infinity-pipeline");
    run_merge_rounds(comm, state, comm.rank(), /*reversed=*/false,
                     profile.records_forwarded);
  }
  profile.records_received = state.received_count();
  profile.hits_resolved = state.hist().finite_total();
  profile.peak_resident = state.peak_resident();
  publish_rank_metrics(profile, state);

  obs::SpanScope span("reduce");
  reduce_results(comm, state.hist(), profile, result);
}

/// The per-rank body of the streaming algorithm (Algorithms 5-6): phase
/// intake + scatter, chunk processing, merge rounds on the virtual
/// topology, state reduction with rank reversal. Rank 0 drains the pipe in
/// phases of np*C references; after each full phase all resident state
/// (under a bound, only its B most recent addresses) is reduced onto the
/// virtual rank np-1, which becomes virtual rank 0 of the next phase, so
/// the global state never travels. A short phase is the last one, and
/// skips the reduction.
void stream_rank_body(comm::Comm& comm, TracePipe& pipe,
                      const PardaOptions& options, PardaResult& result) {
  const int np = comm.size();
  const std::size_t chunk = options.chunk_words;
  RankState state(options.bound);
  RankProfile profile;
  const int me = comm.rank();
  bool reversed = false;  // virtual<->physical map flips every phase
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
        slices[static_cast<std::size_t>(phys_of(v, np, reversed))] = {
            lo, hi - lo};
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
    const int virt = phys_of(me, np, reversed);
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
      run_merge_rounds(comm, state, virt, reversed,
                       profile.records_forwarded);
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
      if (virt != np - 1) {
        comm.send(phys_of(np - 1, np, reversed), kTagState,
                  state.export_state());
      } else {
        for (int v = np - 2; v >= 0; --v) {
          state.import_state(
              comm.recv_view<Addr>(phys_of(v, np, reversed), kTagState)
                  .span());
        }
      }
    }

    reversed = !reversed;  // the holder is virtual rank 0 next phase
    ++phase_no;
  }

  profile.hits_resolved = state.hist().finite_total();
  profile.peak_resident = state.peak_resident();
  publish_rank_metrics(profile, state);
  obs::SpanScope span("final-reduce");
  reduce_results(comm, state.hist(), profile, result);
}

}  // namespace

void reduce_results(comm::Comm& comm, const Histogram& hist,
                    const RankProfile& profile, PardaResult& result) {
  // The profiles ride behind the histogram words as raw 64-bit words.
  static_assert(std::is_trivially_copyable_v<RankProfile>);
  static_assert(sizeof(RankProfile) % sizeof(std::uint64_t) == 0);
  constexpr std::size_t kProfileWords =
      sizeof(RankProfile) / sizeof(std::uint64_t);
  // Binomial-tree merge onto rank 0, mirroring MPI_Reduce: ceil(log2(np))
  // rounds, each rank sends exactly once, and rank me + step's subtree is
  // ranks [me + step, me + 2 * step), clipped to np.
  const int np = comm.size();
  const int me = comm.rank();
  Histogram acc = hist;
  std::vector<RankProfile> profiles{profile};
  for (int step = 1; step < np; step <<= 1) {
    if ((me & step) != 0) {
      // One allocation: the histogram reserves room for the trailer. The
      // buffer moves into the message and the receiver's recv moves it
      // back out, so the reduction never copies payloads.
      const std::size_t trailer = profiles.size() * kProfileWords;
      std::vector<std::uint64_t> words = acc.to_words(trailer);
      const std::size_t at = words.size();
      words.resize(at + trailer);
      std::memcpy(words.data() + at, profiles.data(),
                  trailer * sizeof(std::uint64_t));
      comm.send(me - step, kTagHistogram, std::move(words));
      return;
    }
    if (me + step < np) {
      const std::size_t subtree =
          static_cast<std::size_t>(std::min(step, np - (me + step)));
      const std::size_t trailer = subtree * kProfileWords;
      const std::vector<std::uint64_t> words =
          comm.recv<std::uint64_t>(me + step, kTagHistogram);
      PARDA_CHECK_MSG(words.size() >= trailer,
                      "reduction message of %zu words from rank %d cannot "
                      "hold its subtree's %zu profiles",
                      words.size(), me + step, subtree);
      const std::span<const std::uint64_t> all(words);
      acc.merge(Histogram::from_words(all.first(all.size() - trailer)));
      const std::size_t held = profiles.size();
      profiles.resize(held + subtree);
      std::memcpy(static_cast<void*>(profiles.data() + held),
                  all.data() + all.size() - trailer,
                  trailer * sizeof(std::uint64_t));
    }
  }
  // Rank 0 holds every profile: the analysis's mass must balance.
  std::uint64_t refs = 0;
  std::uint64_t hits = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t received = 0;
  for (const RankProfile& p : profiles) {
    refs += p.chunk_refs;
    hits += p.hits_resolved;
    forwarded += p.records_forwarded;
    received += p.records_received;
  }
  PARDA_CHECK_MSG(
      refs == acc.total() && hits == acc.finite_total() &&
          forwarded == received,
      "analysis mass does not balance: %llu chunk references vs %llu "
      "tallied, %llu hits resolved vs %llu finite, %llu records forwarded "
      "vs %llu received",
      static_cast<unsigned long long>(refs),
      static_cast<unsigned long long>(acc.total()),
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(acc.finite_total()),
      static_cast<unsigned long long>(forwarded),
      static_cast<unsigned long long>(received));
  result.hist = std::move(acc);
  result.profiles = std::move(profiles);
}

PardaResult parda_analyze_source_on(comm::WorkerPool& pool,
                                    TraceSource& source,
                                    const PardaOptions& options) {
  const int np = options.num_procs;
  PARDA_CHECK(np >= 1);
  PardaResult result;
  if (source.offline()) {
    source.partition(np);
    result.stats = pool.run_job(
        np,
        [&](comm::Comm& comm) {
          offline_rank_body(comm, source, options, result);
        },
        options.run_options);
    return result;
  }
  PARDA_CHECK(options.chunk_words >= 1);
  PARDA_CHECK_MSG(options.chunk_words <=
                      SIZE_MAX / static_cast<std::size_t>(np),
                  "chunk_words %zu times %d ranks overflows a phase length",
                  options.chunk_words, np);

  TracePipe pipe(source.pipe_words());
  std::exception_ptr producer_error;
  std::thread producer;
  const comm::TransportSpec& transport = options.run_options.transport;
  if (!transport.distributed() || transport.local_rank == 0) {
    producer = std::thread([&] {
      try {
        source.produce(pipe);
        pipe.close();
      } catch (...) {
        // Poison the pipe so the consumer stops mid-phase instead of
        // analyzing the truncated stream as if it were complete. (If the
        // consumer poisoned it first, this keeps the earlier error.)
        producer_error = std::current_exception();
        pipe.close_with_error(producer_error);
      }
    });
  }
  // Attributes a failure to its root: a producer error reaches the
  // consumer by rethrow, so the producer's own exception goes first.
  const auto join_producer = [&] {
    if (producer.joinable()) producer.join();
    if (producer_error) std::rethrow_exception(producer_error);
  };
  try {
    result.stats = pool.run_job(
        np,
        [&](comm::Comm& comm) {
          try {
            stream_rank_body(comm, pipe, options, result);
          } catch (...) {
            // The World abort that follows wakes the ranks blocked in
            // comm, but not rank 0 blocked on the pipe: poison it first,
            // with this rank's error, so rank 0 stops at once and the
            // call still throws the origin's error.
            pipe.close_with_error(std::current_exception());
            throw;
          }
        },
        options.run_options);
  } catch (...) {
    // Wake a producer blocked on a full pipe before joining it; its next
    // write throws and the thread exits. A failing rank has poisoned the
    // pipe already; a job that fails outside its ranks has not.
    pipe.close_with_error(std::current_exception());
    join_producer();
    throw;
  }
  join_producer();
  return result;
}

PardaResult parda_analyze(TraceSource& source, const PardaOptions& options) {
  comm::WorkerPool pool(options.num_procs);
  return parda_analyze_source_on(pool, source, options);
}

PardaResult parda_analyze(std::span<const Addr> trace,
                          const PardaOptions& options) {
  SpanTraceSource source(trace);
  return parda_analyze(source, options);
}

}  // namespace parda

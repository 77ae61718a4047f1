// Span-based tracing: each rank thread records {rank, phase, op, t_start,
// t_end} events into its own fixed-capacity ring buffer (single writer per
// shard on the rank paths; the unattributed shard claims indices with one
// relaxed fetch_add). Export produces chrome://tracing JSON ("traceEvents"
// with complete "X" events, tid == rank) so a streaming run's per-phase
// structure — scatter / analyze / infinity-pipeline / reduce per Algorithm
// 5 phase — can be loaded straight into a trace viewer.
//
// Timestamps are steady_clock nanoseconds relative to the tracer's epoch;
// recording costs one clock read at span start and one at span end, and
// nothing at all while obs is disabled.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/runtime.hpp"

namespace parda::obs {

/// Sentinel for spans outside any streaming phase.
inline constexpr std::uint32_t kNoPhase = 0xFFFFFFFFu;

struct SpanEvent {
  std::int64_t t_start_ns = 0;
  std::int64_t t_end_ns = 0;
  const char* op = "";     // static-storage string (a literal)
  std::uint32_t phase = kNoPhase;
  std::int32_t rank = -1;  // -1 = unattributed
};

/// The order every span export uses: by rank, then by start time.
inline bool span_order(const SpanEvent& a, const SpanEvent& b) noexcept {
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.t_start_ns < b.t_start_ns;
}

/// One process's span events in span_order; pid 0 is this process.
struct ProcessSpans {
  int pid = 0;
  std::vector<SpanEvent> events;
};

/// The one chrome://tracing renderer behind SpanTracer::to_chrome_json and
/// TelemetryHub::merged_chrome_json: {"traceEvents":[...]} with "X"
/// (complete) events, ts/dur in microseconds, pid == process, tid == rank
/// (unattributed spans use tid kMaxRanks), and args {rank, phase}.
/// `processes` is ordered by pid. process_name rows appear only when a
/// remote process is present, so a single-process trace stays pid 0 with
/// thread rows alone.
std::string chrome_json(const std::vector<ProcessSpans>& processes,
                        std::uint64_t spans_dropped);

class SpanTracer {
 public:
  /// capacity_per_rank events are kept per shard; older events are
  /// overwritten once a shard wraps (dropped() counts overwrites). A
  /// shard's ring is allocated by its first record(), so a run pays only
  /// for the shards its ranks use.
  explicit SpanTracer(std::size_t capacity_per_rank = std::size_t{1} << 15);
  ~SpanTracer();
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Nanoseconds since the tracer's epoch (steady clock).
  std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Records one finished span into the calling thread's shard. No-op while
  /// obs is disabled.
  void record(std::int64_t t_start_ns, std::int64_t t_end_ns, const char* op,
              std::uint32_t phase = kNoPhase) noexcept;

  /// All recorded events, ordered by (rank, t_start). Safe to call while
  /// other threads are still recording (mid-run scrapes, the distributed
  /// telemetry forwarder): each slot is guarded by a seqlock, so a span
  /// whose write is in flight is skipped rather than read torn. A
  /// post-run call (after comm::run has joined its ranks) sees every
  /// surviving span.
  std::vector<SpanEvent> events() const;
  std::vector<SpanEvent> events_for_rank(int rank) const;

  /// Events overwritten by ring wrap-around across all shards.
  std::uint64_t dropped() const noexcept;
  /// Per-shard overwrite counts (index 0 unattributed, r+1 = rank r) —
  /// the obs.spans_dropped counter surfaced in /metrics and the
  /// chrome-trace metadata.
  std::array<std::uint64_t, kShards> dropped_per_shard() const noexcept;

  void clear() noexcept;

  /// chrome_json over this tracer alone (pid 0).
  std::string to_chrome_json() const;

 private:
  /// One ring slot: the event's fields as relaxed atomics plus a seqlock
  /// counter (odd = write in flight, 0 = never published). Readers that
  /// see an odd or changing seq skip the slot; writers never block on
  /// readers, keeping the §12 contract that a scrape cannot stall a
  /// worker. The unattributed shard can in principle have two writers on
  /// one slot after a wrap collision; the seqlock then only guarantees
  /// the reader skips or sees one writer's fields per field — acceptable
  /// for a diagnostic snapshot, and rank shards stay single-writer.
  struct Slot {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<std::int64_t> t_start_ns{0};
    std::atomic<std::int64_t> t_end_ns{0};
    std::atomic<const char*> op{""};
    std::atomic<std::uint32_t> phase{kNoPhase};
    std::atomic<std::int32_t> rank{-1};
  };

  struct Ring {
    explicit Ring(std::size_t cap) : slots(cap) {}
    std::vector<Slot> slots;
    std::atomic<std::uint64_t> n{0};        // total events ever claimed
    std::atomic<std::uint64_t> dropped{0};  // overwrites after wrap
  };

  /// The shard's ring, allocated on first use. Concurrent first writers
  /// (possible on the unattributed shard) settle by compare-and-swap.
  Ring& ring_for(int shard);

  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  // One ring per shard, null until the shard first records; published
  // with release, read with acquire, freed by the destructor.
  std::array<std::atomic<Ring*>, kShards> rings_{};
};

/// The process-global tracer used by the wired-in spans.
SpanTracer& tracer();

/// RAII span recording into the global tracer. Costs nothing while obs is
/// disabled (no clock read). `op` must be a string literal (or otherwise
/// outlive the tracer).
class SpanScope {
 public:
  /// The phase defaults to the calling thread's attribution (see
  /// obs/runtime.hpp), so spans recorded below the streaming driver's
  /// ScopedThreadPhase land in the right phase automatically.
  explicit SpanScope(const char* op,
                     std::uint32_t phase = thread_phase()) noexcept {
    if (enabled()) {
      op_ = op;
      phase_ = phase;
      start_ = tracer().now_ns();
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (op_ != nullptr) {
      SpanTracer& t = tracer();
      t.record(start_, t.now_ns(), op_, phase_);
    }
  }

 private:
  const char* op_ = nullptr;  // null = disabled at construction
  std::uint32_t phase_ = kNoPhase;
  std::int64_t start_ = 0;
};

}  // namespace parda::obs

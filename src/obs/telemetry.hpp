// The distributed telemetry plane's rank-0 half: parda.telemetry.v1 frame
// building/parsing and the TelemetryHub that aggregates remote processes'
// metrics and spans into the fleet-wide exports.
//
// In a distributed World (one rank per process, shm/tcp wire) every
// non-rank-0 process periodically snapshots its metrics registry and span
// ring into a compact JSON frame and forwards it to rank 0 over the
// transport's reserved-tag control plane (comm/telemetry_channel.hpp). Rank
// 0 ingests frames here, so its TelemetryServer serves /metrics,
// /metrics.json, and /spans for the whole fleet with process/rank labels
// and per-process freshness gauges.
//
// Clock alignment: each frame carries the sender's ClockSync — the min-RTT
// midpoint estimate of rank 0's tracer epoch relative to the sender's,
// measured by the ping/pong handshake at World setup. Remote span
// timestamps are rebased onto rank 0's epoch AT INGEST (t + offset_ns), so
// the merged chrome trace and the SpanReport straggler attribution are
// directly comparable across processes; the estimator's uncertainty (half
// the minimum observed RTT) is surfaced in the report and the freshness
// gauges.
//
// The hub never links against comm: frames arrive as opaque JSON strings.
// Every export renders through the hub (obs/export.hpp to_prometheus,
// merged_chrome_json, merged_metrics_json, merged_events): a process with
// no remote telemetry is the fleet of one, and its output carries no
// process labels, freshness families or process_name rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace parda::obs {

/// Offset of rank 0's span-tracer epoch relative to the local one, as
/// estimated by the clock handshake: local_t + offset_ns is the same
/// instant expressed on rank 0's clock. uncertainty_ns is half the minimum
/// observed round-trip (the midpoint estimator cannot be wrong by more).
struct ClockSync {
  std::int64_t offset_ns = 0;
  std::int64_t uncertainty_ns = 0;
  bool valid = false;
  int samples = 0;
};

/// The range [-2^62, 2^62) ns that every remote span's rebased start and
/// end must fall in. Within it, the difference of any two span times, which
/// the span report and the chrome renderer take, fits in an int64.
inline constexpr std::int64_t kSpanTimeLimitNs = std::int64_t{1} << 62;

/// The most distinct span ops a hub interns, and the longest op it takes.
/// Interned ops are never freed, because SpanEvent::op pointers outlive a
/// snapshot, so these bound what remote frames can make rank 0 keep. The
/// library records 8 ops; the longest, "infinity-pipeline", is 17 bytes.
inline constexpr std::size_t kMaxSpanOps = 256;
inline constexpr std::size_t kMaxSpanOpBytes = 64;

/// Renders one parda.telemetry.v1 frame: the process id, a per-sender
/// sequence number, the final-flush marker, the sender's clock estimate,
/// an embedded parda.metrics.v1 snapshot, and the last `max_spans` span
/// events (tracer-epoch timestamps; the hub rebases them).
std::string make_telemetry_frame(int process, std::uint64_t seq,
                                 bool final_frame, const ClockSync& clock,
                                 const Registry& reg, const SpanTracer& tracer,
                                 std::size_t max_spans = 4096);

/// One remote process's most recent telemetry, as the hub stores it.
/// Metric shard arrays follow the registry convention: index 0 is the
/// unattributed shard, index r+1 is rank r.
struct ProcessTelemetry {
  struct RemoteCounter {
    std::string name;
    std::vector<std::uint64_t> shards;
  };
  struct RemoteGauge {
    std::string name;
    std::vector<std::uint64_t> maxes;
    std::vector<std::uint64_t> values;
  };
  struct RemoteTimer {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::vector<std::uint64_t> buckets;  // log2(ns), cumulative-ready
  };

  int process = -1;
  std::uint64_t seq = 0;
  std::uint64_t frames = 0;  // frames ingested from this process
  bool final_received = false;
  ClockSync clock;
  std::int64_t last_ingest_ns = 0;  // local tracer time of the last frame
  std::uint64_t spans_dropped = 0;
  std::vector<RemoteCounter> counters;
  std::vector<RemoteGauge> gauges;
  std::vector<RemoteTimer> timers;
  std::vector<SpanEvent> spans;  // span_order, rebased onto rank 0's epoch
  std::string metrics_json;      // the embedded parda.metrics.v1 document
};

/// Rank 0's aggregation point. Thread-safe: the comm drainer ingests while
/// the TelemetryServer's accept pool renders. Ops of remote spans are
/// interned in a deque so SpanEvent's `const char*` contract holds; only
/// accepted frames intern, up to kMaxSpanOps ops over the hub's lifetime.
class TelemetryHub {
 public:
  /// What ingest_frame learned about the sender — the comm drainer uses
  /// the final flag to know when every peer has flushed.
  struct Ingest {
    int process = -1;
    bool final_frame = false;
  };

  /// Parses and stores one parda.telemetry.v1 frame from rank `sender`,
  /// replacing that process's previous snapshot (frames are cumulative,
  /// not deltas). Throws json::JsonError / std::runtime_error, storing
  /// nothing, on a malformed frame, on one whose process is not `sender`
  /// or is 0 (this hub's own process), on one with a span whose rebased
  /// start or end falls outside [-kSpanTimeLimitNs, kSpanTimeLimitNs), and
  /// on one with an op longer than kMaxSpanOpBytes or with ops the hub has
  /// not interned yet that would take it past kMaxSpanOps.
  Ingest ingest_frame(std::string_view frame_json, int sender);

  /// True when no remote process has ever reported.
  bool empty() const;

  /// Copies of every remote process's latest telemetry, ordered by
  /// process id.
  std::vector<ProcessTelemetry> snapshot() const;

  /// Local + remote span events (remote already rebased), ordered like
  /// SpanTracer::events().
  std::vector<SpanEvent> merged_events(const SpanTracer& local) const;
  /// Span drops across the local tracer and every remote process.
  std::uint64_t merged_dropped(const SpanTracer& local) const;

  /// chrome_json across the fleet: local events keep pid 0, remote
  /// processes render as pid == process id. With no remote process this is
  /// local.to_chrome_json().
  std::string merged_chrome_json(const SpanTracer& local) const;

  /// The local parda.metrics.v1 snapshot extended with a "processes" array
  /// carrying each remote process's embedded snapshot, clock estimate, and
  /// freshness fields.
  std::string merged_metrics_json(const Registry& local) const;

  /// Largest valid clock uncertainty across remote processes (0 when none
  /// reported a valid estimate) — the merged report's error bar.
  std::int64_t max_uncertainty_ns() const;

  std::uint64_t frames_total() const;

  void clear();

 private:
  /// Points spans[i].op at the interned copy of ops[i]. Throws, interning
  /// nothing, when the ops not yet interned would take the table past
  /// kMaxSpanOps. Caller holds mu_.
  void intern_ops(std::vector<SpanEvent>& spans,
                  const std::vector<std::string_view>& ops);

  mutable std::mutex mu_;
  std::map<int, ProcessTelemetry> processes_;
  std::uint64_t frames_total_ = 0;
  std::map<std::string, const char*, std::less<>> op_index_;
  std::deque<std::string> op_storage_;  // stable addresses for SpanEvent::op
};

/// The process-global hub (populated only on rank 0 of a distributed run).
TelemetryHub& hub();

}  // namespace parda::obs

// Prometheus text exposition (format 0.0.4) for the metrics registry, the
// span tracer and the telemetry hub's remote processes, plus the
// hand-rolled format validator the tests and the CI telemetry smoke run
// scrape output through.
//
// Mapping ("." becomes "_", everything prefixed "parda_"):
//   Counter  comm.bytes_sent  -> parda_comm_bytes_sent_total{rank="0"} ...
//   Gauge    runtime.job_np   -> parda_runtime_job_np{rank="driver"} ...
//                                parda_runtime_job_np_max{...}        ...
//   Timer    comm.mailbox_wait-> parda_comm_mailbox_wait_ns_bucket{le="2"}
//                                ..._sum / ..._count   (log2-ns buckets,
//                                aggregated across shards)
// plus parda_obs_spans_dropped_total{rank=...} from the tracer rings.
//
// Rendering reads the same relaxed per-rank shard slots the hot path
// writes — a scrape never takes a lock a worker can hold (the registry
// mutex only guards name registration, which workers touch once at handle
// resolution), so serving /metrics cannot stall an in-flight analysis.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace parda::obs {

class TelemetryHub;

/// The one renderer: the local registry (and the tracer's drop counters)
/// plus every remote process the hub holds, as Prometheus text exposition.
/// Deterministic order: counters, gauges, timers, the tracer synthetics,
/// then the freshness families. All processes share one family block per
/// name (one HELP/TYPE per family). With remote processes present, local
/// samples carry process="0", remote ones process="N", and per-process
/// parda_telemetry_* freshness series follow. With none — every
/// single-process run — this is the fleet of one: no process label, no
/// freshness families, per-rank span drops only.
std::string to_prometheus(const Registry& reg, const SpanTracer& tracer,
                          const TelemetryHub& hub);

/// Convenience over the process globals (what /metrics serves): the
/// hub-aware render against registry(), tracer(), and hub().
std::string to_prometheus();

/// Hand-rolled exposition-format validator: HELP/TYPE presence and order,
/// metric/label name charsets, label escaping, numeric sample values,
/// counter naming, duplicate series (same name and label set, `le`
/// included), histogram bucket monotonicity and _sum/_count consistency.
/// Returns one message per violation; empty = valid.
std::vector<std::string> validate_prometheus(std::string_view text);

}  // namespace parda::obs

#include "obs/telemetry.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace parda::obs {

namespace {

void write_clock(json::Writer& w, const ClockSync& clock) {
  w.begin_object();
  w.key("offset_ns").value(clock.offset_ns);
  w.key("uncertainty_ns").value(clock.uncertainty_ns);
  w.key("valid").value(clock.valid);
  w.key("samples").value(clock.samples);
  w.end_object();
}

ClockSync parse_clock(const json::Value& v) {
  ClockSync clock;
  clock.offset_ns = v.at("offset_ns").as_i64();
  clock.uncertainty_ns = v.at("uncertainty_ns").as_i64();
  clock.valid = v.at("valid").kind == json::Value::Kind::kBool
                    ? v.at("valid").boolean
                    : false;
  clock.samples = static_cast<int>(v.at("samples").as_i64());
  return clock;
}

/// A remote span time `t` rebased onto rank 0's clock, t + offset, with the
/// add checked: a sum that overflows or leaves the span time range throws.
std::int64_t rebase_span_time(std::int64_t t, std::int64_t offset) {
  std::int64_t rebased = 0;
  if (__builtin_add_overflow(t, offset, &rebased) ||
      rebased < -kSpanTimeLimitNs || rebased >= kSpanTimeLimitNs) {
    throw std::runtime_error("telemetry frame: span time " +
                             std::to_string(t) + " + clock offset " +
                             std::to_string(offset) +
                             " ns is outside [-2^62, 2^62) ns");
  }
  return rebased;
}

std::vector<std::uint64_t> parse_u64_array(const json::Value& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.array.size());
  for (const json::Value& e : v.array) out.push_back(e.as_u64());
  return out;
}

/// [unattributed, per_rank...] — the shard layout shared with the local
/// registry (index 0 unattributed, index r+1 = rank r).
std::vector<std::uint64_t> parse_shards(const json::Value& metric,
                                        const char* head_key,
                                        const char* rank_key) {
  std::vector<std::uint64_t> shards;
  shards.push_back(metric.at(head_key).as_u64());
  for (const json::Value& e : metric.at(rank_key).array) {
    shards.push_back(e.as_u64());
  }
  return shards;
}

void rerender(json::Writer& out, const json::Value& v) {
  switch (v.kind) {
    case json::Value::Kind::kNull:
      out.null();
      break;
    case json::Value::Kind::kBool:
      out.value(v.boolean);
      break;
    case json::Value::Kind::kNumber:
      out.raw(v.text);
      break;
    case json::Value::Kind::kString:
      out.value(v.text);
      break;
    case json::Value::Kind::kArray:
      out.begin_array();
      for (const json::Value& e : v.array) rerender(out, e);
      out.end_array();
      break;
    case json::Value::Kind::kObject:
      out.begin_object();
      for (const auto& [k, e] : v.object) {
        out.key(k);
        rerender(out, e);
      }
      out.end_object();
      break;
  }
}

}  // namespace

std::string make_telemetry_frame(int process, std::uint64_t seq,
                                 bool final_frame, const ClockSync& clock,
                                 const Registry& reg, const SpanTracer& tracer,
                                 std::size_t max_spans) {
  std::vector<SpanEvent> spans = tracer.events();
  if (spans.size() > max_spans) {
    // Keep the chronologically latest max_spans, then restore the
    // (rank, t_start) order the hub expects.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const SpanEvent& a, const SpanEvent& b) {
                       return a.t_start_ns < b.t_start_ns;
                     });
    spans.erase(spans.begin(),
                spans.end() - static_cast<std::ptrdiff_t>(max_spans));
    std::stable_sort(spans.begin(), spans.end(), span_order);
  }

  json::Writer w;
  w.begin_object();
  w.key("schema").value("parda.telemetry.v1");
  w.key("process").value(process);
  w.key("seq").value(seq);
  w.key("final").value(final_frame);
  w.key("clock");
  write_clock(w, clock);
  w.key("metrics").raw(reg.to_json());
  w.key("spans").begin_array();
  for (const SpanEvent& e : spans) {
    w.begin_object();
    w.key("t0").value(e.t_start_ns);
    w.key("t1").value(e.t_end_ns);
    w.key("op").value(e.op);
    if (e.phase != kNoPhase) {
      w.key("phase").value(static_cast<std::uint64_t>(e.phase));
    }
    w.key("rank").value(static_cast<std::int64_t>(e.rank));
    w.end_object();
  }
  w.end_array();
  w.key("spans_dropped").value(tracer.dropped());
  w.end_object();
  return w.take();
}

void TelemetryHub::intern_ops(std::vector<SpanEvent>& spans,
                              const std::vector<std::string_view>& ops) {
  std::set<std::string_view> fresh;
  for (const std::string_view op : ops) {
    if (!op_index_.contains(op) && fresh.insert(op).second &&
        op_index_.size() + fresh.size() > kMaxSpanOps) {
      throw std::runtime_error("telemetry frame: more than " +
                               std::to_string(kMaxSpanOps) +
                               " distinct span ops");
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = op_index_.find(ops[i]);
    if (it == op_index_.end()) {
      op_storage_.emplace_back(ops[i]);
      it = op_index_.emplace(op_storage_.back(), op_storage_.back().c_str())
               .first;
    }
    spans[i].op = it->second;
  }
}

TelemetryHub::Ingest TelemetryHub::ingest_frame(std::string_view frame_json,
                                                int sender) {
  const json::Value frame = json::parse(frame_json);
  const json::Value* schema = frame.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "parda.telemetry.v1") {
    throw std::runtime_error("telemetry frame: bad or missing schema");
  }

  ProcessTelemetry pt;
  pt.process = static_cast<int>(frame.at("process").as_i64());
  // A frame speaks only for the rank that sent it, and process 0 is this
  // hub's own: a frame claiming it would duplicate every local series and
  // could satisfy drain()'s wait for a real peer's final frame.
  if (pt.process != sender || pt.process == 0) {
    throw std::runtime_error("telemetry frame: process " +
                             std::to_string(pt.process) + " sent by rank " +
                             std::to_string(sender));
  }
  pt.seq = frame.at("seq").as_u64();
  pt.final_received = frame.at("final").kind == json::Value::Kind::kBool &&
                      frame.at("final").boolean;
  pt.clock = parse_clock(frame.at("clock"));
  pt.spans_dropped = frame.at("spans_dropped").as_u64();

  const json::Value& metrics = frame.at("metrics");
  for (const auto& [name, m] : metrics.at("counters").object) {
    ProcessTelemetry::RemoteCounter c;
    c.name = name;
    c.shards = parse_shards(m, "unattributed", "per_rank");
    pt.counters.push_back(std::move(c));
  }
  for (const auto& [name, m] : metrics.at("gauges").object) {
    ProcessTelemetry::RemoteGauge g;
    g.name = name;
    g.maxes = parse_shards(m, "unattributed", "per_rank");
    g.values = parse_shards(m, "last_unattributed", "last");
    if (g.values.size() != g.maxes.size()) {
      throw std::runtime_error("telemetry frame: gauge '" + name +
                               "' has ragged shard arrays");
    }
    pt.gauges.push_back(std::move(g));
  }
  for (const auto& [name, m] : metrics.at("timers").object) {
    ProcessTelemetry::RemoteTimer t;
    t.name = name;
    t.count = m.at("count").as_u64();
    t.sum_ns = m.at("sum_ns").as_u64();
    t.buckets = parse_u64_array(m.at("log2_ns"));
    // The renderer's bucket bound is 2^(b+1)-1: more buckets than a
    // TimerHistogram has would shift past 64 bits.
    if (t.buckets.size() > TimerHistogram::kBuckets) {
      throw std::runtime_error("telemetry frame: timer '" + name +
                               "' has too many buckets");
    }
    pt.timers.push_back(std::move(t));
  }
  {
    // Re-render the metrics subtree so merged_metrics_json can splice the
    // sender's snapshot verbatim without keeping the whole frame around.
    json::Writer w;
    rerender(w, metrics);
    pt.metrics_json = w.take();
  }

  // Every span is checked before any op is interned: interned ops are
  // never freed, so a refused frame must leave none behind.
  const std::int64_t offset = pt.clock.offset_ns;
  std::vector<std::string_view> ops;
  for (const json::Value& s : frame.at("spans").array) {
    SpanEvent e;
    e.t_start_ns = rebase_span_time(s.at("t0").as_i64(), offset);
    e.t_end_ns = rebase_span_time(s.at("t1").as_i64(), offset);
    const std::string& op = s.at("op").as_string();
    if (op.size() > kMaxSpanOpBytes) {
      throw std::runtime_error("telemetry frame: span op of " +
                               std::to_string(op.size()) +
                               " bytes, more than " +
                               std::to_string(kMaxSpanOpBytes));
    }
    ops.push_back(op);
    const json::Value* phase = s.find("phase");
    e.phase = phase != nullptr ? static_cast<std::uint32_t>(phase->as_u64())
                               : kNoPhase;
    e.rank = static_cast<std::int32_t>(s.at("rank").as_i64());
    pt.spans.push_back(e);
  }
  pt.last_ingest_ns = tracer().now_ns();
  std::lock_guard lock(mu_);
  intern_ops(pt.spans, ops);
  std::stable_sort(pt.spans.begin(), pt.spans.end(), span_order);

  ProcessTelemetry& slot = processes_[pt.process];
  pt.frames = slot.frames + 1;
  const Ingest result{pt.process, pt.final_received};
  slot = std::move(pt);
  ++frames_total_;
  return result;
}

bool TelemetryHub::empty() const {
  std::lock_guard lock(mu_);
  return processes_.empty();
}

std::vector<ProcessTelemetry> TelemetryHub::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<ProcessTelemetry> out;
  out.reserve(processes_.size());
  for (const auto& [process, pt] : processes_) out.push_back(pt);
  return out;
}

std::vector<SpanEvent> TelemetryHub::merged_events(
    const SpanTracer& local) const {
  std::vector<SpanEvent> out = local.events();
  {
    std::lock_guard lock(mu_);
    for (const auto& [process, pt] : processes_) {
      out.insert(out.end(), pt.spans.begin(), pt.spans.end());
    }
  }
  std::stable_sort(out.begin(), out.end(), span_order);
  return out;
}

std::uint64_t TelemetryHub::merged_dropped(const SpanTracer& local) const {
  std::uint64_t d = local.dropped();
  std::lock_guard lock(mu_);
  for (const auto& [process, pt] : processes_) d += pt.spans_dropped;
  return d;
}

std::string TelemetryHub::merged_chrome_json(const SpanTracer& local) const {
  std::vector<ProcessSpans> processes{{0, local.events()}};
  {
    std::lock_guard lock(mu_);
    for (const auto& [process, pt] : processes_) {
      processes.push_back({process, pt.spans});
    }
  }
  return chrome_json(processes, merged_dropped(local));
}

std::string TelemetryHub::merged_metrics_json(const Registry& local) const {
  std::string base = local.to_json();
  std::lock_guard lock(mu_);
  if (processes_.empty()) return base;
  // Splice a "processes" array before the local document's closing brace.
  base.pop_back();
  json::Writer w;
  w.begin_array();
  for (const auto& [process, pt] : processes_) {
    w.begin_object();
    w.key("process").value(process);
    w.key("seq").value(pt.seq);
    w.key("frames").value(pt.frames);
    w.key("final").value(pt.final_received);
    w.key("clock");
    write_clock(w, pt.clock);
    w.key("spans_dropped").value(pt.spans_dropped);
    w.key("age_ns").value(std::max<std::int64_t>(
        0, tracer().now_ns() - pt.last_ingest_ns));
    w.key("metrics").raw(pt.metrics_json);
    w.end_object();
  }
  w.end_array();
  base += ",\"processes\":";
  base += w.take();
  base += "}";
  return base;
}

std::int64_t TelemetryHub::max_uncertainty_ns() const {
  std::lock_guard lock(mu_);
  std::int64_t u = 0;
  for (const auto& [process, pt] : processes_) {
    if (pt.clock.valid) u = std::max(u, pt.clock.uncertainty_ns);
  }
  return u;
}

std::uint64_t TelemetryHub::frames_total() const {
  std::lock_guard lock(mu_);
  return frames_total_;
}

void TelemetryHub::clear() {
  std::lock_guard lock(mu_);
  processes_.clear();
  frames_total_ = 0;
  // Interned op strings stay allocated: cleared hubs may still have
  // SpanEvent copies alive in callers.
}

TelemetryHub& hub() {
  static TelemetryHub instance;
  return instance;
}

}  // namespace parda::obs

#include "obs/span_tracer.hpp"

#include <algorithm>
#include <memory>

#include "util/json.hpp"

namespace parda::obs {

SpanTracer::SpanTracer(std::size_t capacity_per_rank)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(std::max<std::size_t>(capacity_per_rank, 16)) {}

SpanTracer::~SpanTracer() {
  for (auto& shard : rings_) delete shard.load(std::memory_order_acquire);
}

SpanTracer::Ring& SpanTracer::ring_for(int shard) {
  std::atomic<Ring*>& published = rings_[static_cast<std::size_t>(shard)];
  Ring* ring = published.load(std::memory_order_acquire);
  if (ring != nullptr) return *ring;
  auto fresh = std::make_unique<Ring>(capacity_);
  if (published.compare_exchange_strong(ring, fresh.get(),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    return *fresh.release();
  }
  return *ring;  // another writer published first; `fresh` is freed
}

void SpanTracer::record(std::int64_t t_start_ns, std::int64_t t_end_ns,
                        const char* op, std::uint32_t phase) noexcept {
  if (!enabled()) return;
  Ring& ring = ring_for(thread_shard());
  // Claim an index with one relaxed RMW: rank shards have a single writer
  // (the rank's own thread); the unattributed shard may have several, and
  // the claim keeps their writes disjoint.
  const std::uint64_t idx = ring.n.fetch_add(1, std::memory_order_relaxed);
  if (idx >= capacity_) {
    // The claimed slot overwrites the shard's oldest span: count the loss
    // (relaxed, shard-local) so exports can surface it instead of wrapping
    // silently.
    ring.dropped.fetch_add(1, std::memory_order_relaxed);
  }
  Slot& slot = ring.slots[static_cast<std::size_t>(idx % capacity_)];
  // Seqlock write: odd seq marks the write in flight so a concurrent
  // snapshot (mid-run scrape, telemetry forwarder) skips the slot
  // instead of reading it torn.
  const std::uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.t_start_ns.store(t_start_ns, std::memory_order_relaxed);
  slot.t_end_ns.store(t_end_ns, std::memory_order_relaxed);
  slot.op.store(op, std::memory_order_relaxed);
  slot.phase.store(phase, std::memory_order_relaxed);
  slot.rank.store(thread_rank(), std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
}

std::vector<SpanEvent> SpanTracer::events() const {
  std::vector<SpanEvent> out;
  for (const auto& shard : rings_) {
    const Ring* ring = shard.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t n = ring->n.load(std::memory_order_acquire);
    const std::uint64_t kept = std::min<std::uint64_t>(n, capacity_);
    for (std::uint64_t i = n - kept; i < n; ++i) {
      const Slot& slot = ring->slots[static_cast<std::size_t>(i % capacity_)];
      const std::uint32_t s1 = slot.seq.load(std::memory_order_acquire);
      SpanEvent e;
      e.t_start_ns = slot.t_start_ns.load(std::memory_order_relaxed);
      e.t_end_ns = slot.t_end_ns.load(std::memory_order_relaxed);
      e.op = slot.op.load(std::memory_order_relaxed);
      e.phase = slot.phase.load(std::memory_order_relaxed);
      e.rank = slot.rank.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint32_t s2 = slot.seq.load(std::memory_order_relaxed);
      // Skip unpublished (0), in-flight (odd), or overwritten-mid-read
      // (changed) slots: a snapshot may briefly miss a span a concurrent
      // writer is filling in, never emit a torn one.
      if (s1 == 0 || (s1 & 1u) != 0 || s1 != s2) continue;
      out.push_back(e);
    }
  }
  std::stable_sort(out.begin(), out.end(), span_order);
  return out;
}

std::vector<SpanEvent> SpanTracer::events_for_rank(int rank) const {
  std::vector<SpanEvent> all = events();
  std::erase_if(all, [rank](const SpanEvent& e) { return e.rank != rank; });
  return all;
}

std::uint64_t SpanTracer::dropped() const noexcept {
  std::uint64_t d = 0;
  for (const std::uint64_t shard : dropped_per_shard()) d += shard;
  return d;
}

std::array<std::uint64_t, kShards> SpanTracer::dropped_per_shard()
    const noexcept {
  std::array<std::uint64_t, kShards> out{};
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    if (const Ring* ring = rings_[i].load(std::memory_order_acquire)) {
      out[i] = ring->dropped.load(std::memory_order_relaxed);
    }
  }
  return out;
}

void SpanTracer::clear() noexcept {
  for (auto& shard : rings_) {
    if (Ring* ring = shard.load(std::memory_order_acquire)) {
      ring->n.store(0, std::memory_order_relaxed);
      ring->dropped.store(0, std::memory_order_relaxed);
    }
  }
}

std::string SpanTracer::to_chrome_json() const {
  return chrome_json({{0, events()}}, dropped());
}

std::string chrome_json(const std::vector<ProcessSpans>& processes,
                        std::uint64_t spans_dropped) {
  const bool name_processes = processes.size() > 1;
  json::Writer w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  auto metadata = [&w](const char* kind, int pid, std::int32_t tid,
                       const std::string& name) {
    w.begin_object();
    w.key("name").value(kind);
    w.key("ph").value("M");
    w.key("pid").value(pid);
    w.key("tid").value(tid);
    w.key("args").begin_object();
    w.key("name").value(name);
    w.end_object();
    w.end_object();
  };
  for (const ProcessSpans& p : processes) {
    if (name_processes && !p.events.empty()) {
      metadata("process_name", p.pid, 0, "process " + std::to_string(p.pid));
    }
    // Thread-name metadata so chrome://tracing labels rows "rank N".
    std::int32_t last_named = -2;
    for (const SpanEvent& e : p.events) {
      const std::int32_t tid = e.rank >= 0 ? e.rank : kMaxRanks;
      if (e.rank != last_named) {
        last_named = e.rank;
        metadata("thread_name", p.pid, tid,
                 e.rank >= 0 ? "rank " + std::to_string(e.rank) : "driver");
      }
      w.begin_object();
      w.key("name").value(e.op);
      w.key("cat").value("parda");
      w.key("ph").value("X");
      w.key("pid").value(p.pid);
      w.key("tid").value(tid);
      w.key("ts").value(static_cast<double>(e.t_start_ns) / 1000.0);
      w.key("dur").value(
          static_cast<double>(e.t_end_ns - e.t_start_ns) / 1000.0);
      w.key("args").begin_object();
      w.key("rank").value(static_cast<std::int64_t>(e.rank));
      if (e.phase != kNoPhase) {
        w.key("phase").value(static_cast<std::uint64_t>(e.phase));
      }
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.key("displayTimeUnit").value("ms");
  // Ring-wrap visibility: a nonzero count here means the oldest spans were
  // overwritten and the trace above is the tail, not the whole run.
  w.key("otherData").begin_object();
  w.key("spansDropped").value(spans_dropped);
  w.end_object();
  w.end_object();
  return w.take();
}

SpanTracer& tracer() {
  static SpanTracer instance;
  return instance;
}

}  // namespace parda::obs

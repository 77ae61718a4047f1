#include "trace/source.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "util/check.hpp"

namespace parda {

// --- TraceSource defaults ---------------------------------------------------
// Each capability is optional; asking a source for the other family's
// interface is a programming error, reported as a CheckError naming the
// source.

std::uint64_t TraceSource::total_references() const {
  PARDA_CHECK_MSG(false, "TraceSource: not an offline source");
}

void TraceSource::partition(int) {
  PARDA_CHECK_MSG(false, "TraceSource: not an offline source");
}

std::span<const Addr> TraceSource::rank_view(int) {
  PARDA_CHECK_MSG(false, "TraceSource: not an offline source");
}

std::size_t TraceSource::pipe_words() const {
  PARDA_CHECK_MSG(false, "TraceSource: not a streaming source");
}

void TraceSource::produce(TracePipe&) {
  PARDA_CHECK_MSG(false, "TraceSource: not a streaming source");
}

// --- SpanTraceSource --------------------------------------------------------

void SpanTraceSource::partition(int np) {
  PARDA_CHECK(np >= 1);
  np_ = np;
}

std::span<const Addr> SpanTraceSource::rank_view(int rank) {
  PARDA_CHECK_MSG(np_ >= 1, "SpanTraceSource: partition() before rank_view()");
  PARDA_CHECK(rank >= 0 && rank < np_);
  // The classic ceil-division split of Algorithm 3: rank p owns global
  // positions [p*ceil(N/np), ...).
  const std::size_t n = refs_.size();
  const auto np = static_cast<std::size_t>(np_);
  const std::size_t chunk = (n + np - 1) / np;
  const std::size_t begin = std::min(static_cast<std::size_t>(rank) * chunk, n);
  const std::size_t end = std::min(begin + chunk, n);
  return refs_.subspan(begin, end - begin);
}

// --- MmapTraceSource --------------------------------------------------------

MmapTraceSource::MmapTraceSource(const std::string& path) : map_(path) {
  const std::uint64_t total = check_trace_header(
      {map_.data(), std::min<std::size_t>(map_.size(), kTraceHeaderBytes)},
      map_.size(), path);
  // The 24-byte header keeps the body 8-aligned, so the view is a plain
  // reinterpretation of the mapping — this is the zero-copy property.
  static_assert(kTraceHeaderBytes % sizeof(Addr) == 0);
  refs_ = std::span<const Addr>(
      reinterpret_cast<const Addr*>(map_.data() + kTraceHeaderBytes),
      static_cast<std::size_t>(total));
  map_.advise_sequential();
  if (obs::enabled()) {
    obs::registry().counter("ingest.bytes_mapped").add(map_.size());
  }
}

// --- ChunkedTrzSource -------------------------------------------------------

ChunkedTrzSource::ChunkedTrzSource(const std::string& path) : file_(path) {
  if (obs::enabled()) {
    obs::registry().counter("ingest.bytes_mapped").add(file_.file_bytes());
  }
}

void ChunkedTrzSource::partition(int np) {
  PARDA_CHECK(np >= 1);
  // Contiguous chunk runs, balanced by chunk count (chunks are fixed-size
  // except the last, so this is balanced by references too): rank r gets
  // chunks [r*M/np, (r+1)*M/np). Ranks beyond the chunk count get empty
  // runs — their views are empty and the merge pipeline is unaffected.
  const std::uint64_t m = file_.num_chunks();
  const auto unp = static_cast<std::uint64_t>(np);
  plan_.assign(static_cast<std::size_t>(np), {});
  if (arenas_.size() < static_cast<std::size_t>(np)) {
    arenas_.resize(static_cast<std::size_t>(np));  // capacity is retained
  }
  for (std::uint64_t r = 0; r < unp; ++r) {
    Assignment& a = plan_[static_cast<std::size_t>(r)];
    a.first_chunk = r * m / unp;
    a.num_chunks = (r + 1) * m / unp - a.first_chunk;
    a.refs = 0;
    for (std::uint64_t c = 0; c < a.num_chunks; ++c) {
      a.refs += file_.chunk(static_cast<std::size_t>(a.first_chunk + c)).refs;
    }
  }
  if (obs::enabled()) {
    obs::registry().counter("ingest.chunks_assigned").add(m);
  }
}

std::span<const Addr> ChunkedTrzSource::rank_view(int rank) {
  PARDA_CHECK_MSG(!plan_.empty(),
                  "ChunkedTrzSource: partition() before rank_view()");
  PARDA_CHECK(rank >= 0 && static_cast<std::size_t>(rank) < plan_.size());
  const Assignment& a = plan_[static_cast<std::size_t>(rank)];
  std::vector<Addr>& arena = arenas_[static_cast<std::size_t>(rank)];
  arena.clear();
  arena.reserve(static_cast<std::size_t>(a.refs));
  const std::int64_t t0 = obs::enabled() ? obs::tracer().now_ns() : -1;
  std::uint64_t payload_bytes = 0;
  for (std::uint64_t c = 0; c < a.num_chunks; ++c) {
    const auto idx = static_cast<std::size_t>(a.first_chunk + c);
    file_.decode_chunk(idx, arena);
    payload_bytes += file_.chunk(idx).payload_bytes;
  }
  if (t0 >= 0) {
    auto& reg = obs::registry();
    reg.counter("ingest.bytes_decoded").add(payload_bytes);
    reg.timer("ingest.decode").record_ns(
        static_cast<std::uint64_t>(obs::tracer().now_ns() - t0));
  }
  return arena;
}

std::pair<std::uint64_t, std::uint64_t> ChunkedTrzSource::assigned_chunks(
    int rank) const {
  PARDA_CHECK(rank >= 0 && static_cast<std::size_t>(rank) < plan_.size());
  const Assignment& a = plan_[static_cast<std::size_t>(rank)];
  return {a.first_chunk, a.num_chunks};
}

std::unique_ptr<TraceSource> open_offline_source(const std::string& path,
                                                 IngestMode mode) {
  if (mode == IngestMode::kTrz) return std::make_unique<ChunkedTrzSource>(path);
  return std::make_unique<MmapTraceSource>(path);
}

}  // namespace parda

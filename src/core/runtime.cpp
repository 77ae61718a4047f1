#include "core/runtime.hpp"

#include "core/file_analysis.hpp"
#include "obs/runtime.hpp"

namespace parda::core {

namespace {

/// Tracks one in-flight session job on its runtime: the counter feeds
/// PardaRuntime::pending_jobs() (the serving layer's queue-pressure
/// signal) and mirrors into the runtime.pending_jobs gauge.
class PendingJobGuard {
 public:
  PendingJobGuard(std::atomic<std::uint64_t>& pending, obs::Gauge* gauge)
      : pending_(pending), gauge_(gauge) {
    const std::uint64_t now =
        pending_.fetch_add(1, std::memory_order_relaxed) + 1;
    gauge_->set(now);
  }
  ~PendingJobGuard() {
    const std::uint64_t now =
        pending_.fetch_sub(1, std::memory_order_relaxed) - 1;
    gauge_->set(now);
  }

 private:
  std::atomic<std::uint64_t>& pending_;
  obs::Gauge* gauge_;
};

}  // namespace

PardaRuntime::PardaRuntime(const RuntimeOptions& options)
    : pool_(options.initial_workers),
      pending_gauge_(&obs::registry().gauge("runtime.pending_jobs")) {
  if (options.serve_port.has_value()) {
    // A live scrape without recording would read all-zero shards; serving
    // implies observing.
    obs::set_enabled(true);
    server_ = std::make_unique<obs::TelemetryServer>(
        *options.serve_port, [this] {
          obs::Health h;
          h.ok = true;
          h.workers = pool_.capacity();
          h.jobs = pool_.jobs_run();
          h.watchdog = pool_.watchdog_armed();
          return h;
        });
  }
}

PardaRuntime::~PardaRuntime() {
  // The health callback dereferences the pool: stop serving before any
  // member is torn down.
  server_.reset();
}

PardaResult AnalysisSession::analyze(TraceSource& source) {
  PendingJobGuard pending(runtime_->pending_jobs_, runtime_->pending_gauge_);
  return parda_analyze_source_on(runtime_->pool(), source, options_);
}

PardaResult AnalysisSession::analyze(std::span<const Addr> trace) {
  SpanTraceSource source(trace);
  return analyze(source);
}

PardaResult AnalysisSession::analyze_file(const std::string& path,
                                          std::size_t pipe_words) {
  PendingJobGuard pending(runtime_->pending_jobs_, runtime_->pending_gauge_);
  return parda_analyze_file_on(runtime_->pool(), path, options_, pipe_words);
}

}  // namespace parda::core

// The analysis-session layer: a PardaRuntime owns one persistent
// WorkerPool (comm/worker_pool.hpp) and hands out lightweight
// AnalysisSession handles bound to it. Repeated analyses — bench loops,
// online monitoring windows, many small traces — reuse the same parked
// worker threads and cached Worlds instead of spawning and joining np OS
// threads per call.
//
// Every session call ends in the one analysis driver,
// parda_analyze_source_on (core/parda.hpp): analyze() takes a TraceSource
// or wraps an in-memory trace in a SpanTraceSource, and analyze_file()
// streams an on-disk trace through a PipeTraceSource.
//
// Concurrency model: sessions are cheap value handles; any number of them
// (on any threads) may call analyze()/analyze_file() concurrently. Jobs
// multiplex the runtime's single pool through its FIFO admission queue —
// one job runs at a time, in arrival order, and the results are exactly
// what the transient parda_analyze entry points produce. A failed job
// (rank exception, injected fault, watchdog abort) throws from that call
// only; the runtime stays healthy for the next one.
//
// The runtime must outlive every session created from it.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "comm/worker_pool.hpp"
#include "core/parda.hpp"
#include "obs/metrics.hpp"
#include "obs/server.hpp"

namespace parda::core {

class PardaRuntime;

/// A binding of analysis options to a runtime. analyze* calls submit jobs
/// to the runtime's shared pool; tune options() freely between calls.
class AnalysisSession {
 public:
  /// Analysis through a caller-owned TraceSource (trace/source.hpp):
  /// offline sources run Algorithm 3 over their rank views; a
  /// PipeTraceSource runs the multi-phase Algorithms 5-6, its producer on
  /// a thread the driver starts and joins within the call.
  PardaResult analyze(TraceSource& source);
  /// Offline analysis of an in-memory trace (Algorithm 3).
  PardaResult analyze(std::span<const Addr> trace);
  /// Streamed analysis of an on-disk binary trace: a file producer feeds
  /// a pipe of pipe_words (core/file_analysis.hpp).
  PardaResult analyze_file(const std::string& path,
                           std::size_t pipe_words = 1 << 20);

  PardaOptions& options() noexcept { return options_; }
  const PardaOptions& options() const noexcept { return options_; }

 private:
  friend class PardaRuntime;
  AnalysisSession(PardaRuntime& runtime, PardaOptions options)
      : runtime_(&runtime), options_(std::move(options)) {}

  PardaRuntime* runtime_;
  PardaOptions options_;
};

/// Construction knobs for PardaRuntime; default-constructed reproduces the
/// historical plain pool.
struct RuntimeOptions {
  /// Parked workers spawned up front (0 = grow lazily to the largest
  /// num_procs any session asks for).
  int initial_workers = 0;
  /// When set, the runtime owns a TelemetryServer on 127.0.0.1:*serve_port
  /// (0 = ephemeral; query serve_port() for the bound port) serving
  /// /metrics, /metrics.json, /spans, and /healthz for the duration of the
  /// runtime. Starting the server enables obs recording — with no server
  /// (and obs otherwise off) the hot paths do zero telemetry work.
  std::optional<std::uint16_t> serve_port;
};

/// Owns the shared WorkerPool. Construct once, keep it alive for the
/// process (or the serving scope), and create sessions per client/config.
class PardaRuntime {
 public:
  /// Spawns `initial_workers` parked workers up front (0 = grow lazily to
  /// the largest num_procs any session asks for).
  explicit PardaRuntime(int initial_workers = 0)
      : PardaRuntime(RuntimeOptions{initial_workers, std::nullopt}) {}
  explicit PardaRuntime(const RuntimeOptions& options);
  ~PardaRuntime();

  /// Creates a session bound to this runtime with the given options.
  AnalysisSession session(PardaOptions options = {}) {
    return AnalysisSession(*this, std::move(options));
  }

  comm::WorkerPool& pool() noexcept { return pool_; }

  /// Lifecycle counters, mirrored from the pool (see also the runtime.*
  /// metrics in the obs registry).
  int capacity() const noexcept { return pool_.capacity(); }
  std::uint64_t jobs_run() const noexcept { return pool_.jobs_run(); }
  std::uint64_t worlds_created() const noexcept {
    return pool_.worlds_created();
  }
  std::uint64_t world_reuses() const noexcept { return pool_.world_reuses(); }

  /// The telemetry server's bound port, or 0 when not serving.
  std::uint16_t serve_port() const noexcept {
    return server_ ? server_->port() : 0;
  }

  /// The owned telemetry server, or nullptr when not serving. The serving
  /// layer uses this to mount its routes (TelemetryServer::set_handler).
  obs::TelemetryServer* telemetry() noexcept { return server_.get(); }

  /// Jobs submitted through sessions that have not finished yet (queued
  /// in the pool's FIFO admission or running). The admission-control hook
  /// for layers that must shed load before the queue grows without bound:
  /// sampled by MrcService, published as the runtime.pending_jobs gauge.
  std::uint64_t pending_jobs() const noexcept {
    return pending_jobs_.load(std::memory_order_relaxed);
  }

 private:
  friend class AnalysisSession;

  comm::WorkerPool pool_;
  std::atomic<std::uint64_t> pending_jobs_{0};
  obs::Gauge* pending_gauge_;                     // cached handle
  std::unique_ptr<obs::TelemetryServer> server_;  // null unless serving
};

}  // namespace parda::core

// TelemetryServer: a minimal poll-loop HTTP/1.1 server exposing the obs
// layer while an analysis is running. Opt-in (RuntimeOptions.serve_port /
// trace_tool --serve); when off, nothing here is constructed and the hot
// paths do zero extra work.
//
// Built-in endpoints (GET, Connection: close):
//   /metrics       Prometheus text exposition 0.0.4 (obs/export.hpp)
//   /metrics.json  the "parda.metrics.v1" snapshot
//                  (TelemetryHub::merged_metrics_json)
//   /spans         chrome://tracing JSON (TelemetryHub::merged_chrome_json)
// Each renders through the hub: on rank 0 of a distributed run it covers
// every process, everywhere else the hub holds no remote process and the
// output describes this process alone.
//   /healthz       pool + watchdog status from the runtime's callback
//
// An owner may additionally install ONE route handler (set_handler) that
// is consulted before the built-ins for every request — GET and POST —
// with the request body already read (bounded by kMaxBodyBytes, rejected
// 413 beyond it). This is how the serving layer (src/serve) mounts its
// /tenants and /ingest routes without the obs library ever linking
// against it.
//
// Every built-in endpoint renders from the same relaxed per-rank shard
// slots the hot path writes, so a scrape never takes a lock a worker can
// hold and cannot stall an in-flight analysis. Requests are served by a
// small ACCEPT POOL (kDefaultAcceptThreads threads sharing the listen
// socket, each poll+accept+serve): a route handler that blocks — an
// ingest POST waiting on the analysis pool, a slow client dribbling its
// body — occupies one pool thread, and /metrics scrapes keep flowing
// through the others instead of queuing behind it. This is still scrape
// and control traffic, not a high-fanout RPC plane. The listener binds
// 127.0.0.1 only; port 0 picks an ephemeral port (see port()).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace parda::obs {

/// The listen socket could not be bound (port already in use, no
/// privileges, out of descriptors). Typed so tools can turn it into a
/// clean runtime-failure exit instead of an anonymous runtime_error.
class ServerBindError : public std::runtime_error {
 public:
  ServerBindError(std::uint16_t port, const std::string& what)
      : std::runtime_error(what), port_(port) {}
  /// The port that was requested (0 = ephemeral).
  std::uint16_t port() const noexcept { return port_; }

 private:
  std::uint16_t port_;
};

/// What /healthz reports. Filled by the owning runtime's callback so the
/// obs library never links against the comm layer.
struct Health {
  bool ok = true;
  int workers = 0;           // pool worker threads alive
  std::uint64_t jobs = 0;    // jobs admitted so far
  bool watchdog = false;     // stall-watchdog service thread running
  std::string detail;        // optional free-form note ("" = omitted)
};

using HealthFn = std::function<Health()>;

class TelemetryServer {
 public:
  /// Largest accepted request body; anything bigger is answered 413
  /// before the handler runs (hostile "oversized frame" clients cannot
  /// make the server buffer unbounded input).
  static constexpr std::size_t kMaxBodyBytes = 8u << 20;
  /// Accept-pool width: how many requests can be in service concurrently
  /// before one more queues in the listen backlog.
  static constexpr int kDefaultAcceptThreads = 4;

  /// Binds and starts serving immediately; throws ServerBindError if the
  /// port cannot be bound. port 0 = ephemeral (query port()).
  /// health may be empty: /healthz then reports {"ok":true} only.
  /// accept_threads sizes the pool (clamped to >= 1).
  explicit TelemetryServer(std::uint16_t port, HealthFn health = {},
                           int accept_threads = kDefaultAcceptThreads);
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;
  ~TelemetryServer();

  /// The actually bound port (resolves port 0).
  std::uint16_t port() const noexcept { return port_; }
  /// Accept-pool threads serving requests.
  int accept_threads() const noexcept {
    return static_cast<int>(threads_.size());
  }

  /// Stops the poll loops and joins the accept pool. Idempotent.
  void stop();

  /// One parsed request, as handed to the route handler.
  struct Request {
    std::string method;        // "GET" or "POST" (others answered 405)
    std::string path;          // without the query string
    std::string content_type;  // "" when absent
    std::string body;          // <= kMaxBodyBytes
  };

  /// Request dispatch result: maps to (status, content-type, body).
  struct Response {
    int status = 200;
    std::string content_type;
    std::string body;
  };

  /// A route handler: return a Response to answer the request, or
  /// nullopt to fall through to the built-in endpoints. A throwing
  /// handler answers 500 with the exception text. Install before traffic
  /// arrives (the setter is serialized against dispatch, but handlers
  /// themselves must be thread-safe against the owner's other threads).
  using RouteFn = std::function<std::optional<Response>(const Request&)>;
  void set_handler(RouteFn handler);

  /// Request dispatch, exposed for tests: runs the installed handler,
  /// then the built-ins.
  Response handle(const Request& request) const;
  /// GET convenience for the scrape-endpoint tests.
  Response handle(std::string_view path) const;

 private:
  void serve_loop();
  void serve_one(int client_fd) const;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  HealthFn health_;
  mutable std::mutex handler_mu_;
  RouteFn handler_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // the accept pool
};

}  // namespace parda::obs

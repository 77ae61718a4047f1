// MrcService: the multi-tenant ingest front end over one shared
// PardaRuntime. Tenants register (programmatically or over HTTP), stream
// references into per-tenant TenantSessions, and read miss-ratio-curve
// snapshots back out. The service owns three robustness layers the bare
// runtime does not have:
//
//   Admission control  every batch passes a typed admission check (rate
//                      quota, batch size, queue bytes, tenant existence,
//                      drain/overload state) before touching the pool;
//                      rejects map onto HTTP 4xx/5xx statuses.
//   Fault isolation    a tenant whose window jobs abort is quarantined
//                      after its abort quota; the shared pool recycles the
//                      poisoned World (World::reset) and every other
//                      tenant's histograms are exactly what solo runs
//                      produce (the chaos test proves bit-equality).
//   Degradation        a tenant over its memory quota is downgraded in
//                      place to fixed-size SHARDS_adj sampling, so its
//                      resident state stops growing; globally, the shed
//                      policy chooses between rejecting new work and
//                      degrading everyone when the service is overloaded.
//
// Thread model: all public methods are thread-safe. A tenant-name map
// mutex guards registration/lookup; each tenant carries its own mutex, so
// concurrent ingests for different tenants only serialize at the
// runtime's FIFO job admission (the paper's parallelism is per job).
// HTTP dispatch (route) runs on the TelemetryServer's single serving
// thread and takes the same locks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "hist/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/server.hpp"
#include "serve/tenant.hpp"
#include "util/types.hpp"

namespace parda::serve {

/// Typed admission verdict for every register/ingest attempt. admitted()
/// is true for the first two only; everything else is a rejection whose
/// HTTP status http_status() yields.
enum class Admission {
  kOk,            // 200 accepted, exact pipeline
  kDegraded,      // 200 accepted, tenant is on the sampling pipeline
  kRateLimited,   // 429 token bucket empty
  kQueueFull,     // 429 pending window + batch over max_queued_bytes
  kBatchTooLarge, // 413 batch over max_batch_refs
  kQuarantined,   // 409 tenant is quarantined (terminal)
  kShedding,      // 503 service overloaded, reject-newest policy
  kDraining,      // 503 drain in progress, no new work
  kUnknownTenant, // 404 no such tenant
  kAlreadyExists, // 409 register: name taken
  kTenantLimit,   // 503 register: max_tenants reached
  kMalformed,     // 400 unparseable frame or tenant name / bad config
};

const char* to_string(Admission a) noexcept;
int http_status(Admission a) noexcept;
inline bool admitted(Admission a) noexcept {
  return a == Admission::kOk || a == Admission::kDegraded;
}

/// What to do when the service as a whole is overloaded (pending jobs or
/// global footprint over quota).
enum class ShedPolicy {
  kRejectNewest,  // bounce incoming batches with kShedding until pressure drops
  kDegradeAll,    // downgrade every exact tenant to sampling, keep accepting
};

class MrcService {
 public:
  struct Config {
    std::size_t max_tenants = 64;
    /// Sum of per-tenant resident footprints that counts as overload.
    /// 0 = unlimited.
    std::uint64_t global_memory_quota_bytes = 0;
    /// Runtime pending-job count that counts as overload. 0 = unlimited.
    std::uint64_t max_pending_jobs = 0;
    ShedPolicy shed = ShedPolicy::kRejectNewest;
    /// Defaults applied to tenants registered without an explicit config
    /// (HTTP registrations may override a whitelisted subset, see route).
    TenantConfig tenant_defaults;
  };

  /// The runtime must outlive the service.
  explicit MrcService(core::PardaRuntime& runtime)
      : MrcService(runtime, Config()) {}
  MrcService(core::PardaRuntime& runtime, Config config);
  ~MrcService();

  MrcService(const MrcService&) = delete;
  MrcService& operator=(const MrcService&) = delete;

  // --- programmatic surface (what the HTTP routes call) ---------------------

  Admission register_tenant(const std::string& name);
  Admission register_tenant(const std::string& name,
                            const TenantConfig& config);

  /// Admits and feeds one batch for `name`. The `now` overload exists so
  /// tests can drive the token bucket deterministically.
  Admission ingest(const std::string& name, std::span<const Addr> refs);
  Admission ingest(const std::string& name, std::span<const Addr> refs,
                   std::chrono::steady_clock::time_point now);

  struct TenantStatus {
    std::string name;
    TenantMode mode = TenantMode::kExact;
    std::uint64_t references = 0;
    std::uint64_t windows = 0;
    std::uint64_t aborts = 0;
    std::uint64_t footprint_bytes = 0;
    double sample_rate = 1.0;
  };
  std::optional<TenantStatus> status(const std::string& name) const;

  /// The tenant's current decayed histogram (snapshot semantics; analyzes
  /// the pending exact window on demand — an abort there returns nullopt
  /// and counts against the tenant's abort quota).
  std::optional<Histogram> histogram(const std::string& name);

  std::vector<std::string> tenant_names() const;
  std::size_t tenant_count() const;
  std::uint64_t global_footprint_bytes() const noexcept {
    return global_footprint_.load(std::memory_order_relaxed);
  }
  bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  /// Graceful drain: permanently stops admission, finishes every tenant's
  /// in-flight window (exact analysis or sampler flush), and returns the
  /// final per-tenant histograms. Idempotent; later calls return the same
  /// flushed state.
  std::map<std::string, Histogram> drain();

  // --- HTTP surface ---------------------------------------------------------

  /// Route handler for TelemetryServer::set_handler. Handles:
  ///   POST /tenants/<name>            register (optional JSON config body)
  ///   GET  /tenants                   list tenants + modes
  ///   GET  /tenants/<name>            status JSON
  ///   GET  /tenants/<name>/histogram  parda.histogram.v1
  ///   POST /ingest/<name>             text/plain one address per line, or
  ///                                   application/octet-stream LE u64s
  /// Returns nullopt for everything else (falls through to the telemetry
  /// built-ins). A malformed ingest frame quarantines the tenant.
  std::optional<obs::TelemetryServer::Response> route(
      const obs::TelemetryServer::Request& request);

  /// Installs route() on the runtime's TelemetryServer (which must exist).
  /// The destructor uninstalls it.
  void mount();

 private:
  struct Tenant {
    std::mutex mu;
    TenantSession session;
    // Handles resolved once at registration (registry lookup is the cold
    // path); names carry an embedded {tenant=...} label block that the
    // Prometheus exporter renders as a real label.
    obs::Counter* ingested = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* abort_count = nullptr;
    obs::Counter* shed = nullptr;        // batches bounced by overload
    obs::Counter* degraded = nullptr;    // exact -> sampling transitions
    obs::Counter* quarantined = nullptr; // terminal quarantine events
    obs::Gauge* footprint = nullptr;
    obs::Gauge* mode_gauge = nullptr;
    std::uint64_t reported_footprint = 0;  // last value added to the global

    Tenant(std::string name, core::PardaRuntime& runtime,
           const TenantConfig& config)
        : session(std::move(name), runtime, config) {}
  };

  Tenant* find(const std::string& name) const;
  /// Recomputes the tenant's footprint, updates its gauge and the global
  /// accumulator by delta. Caller holds the tenant's mutex.
  void refresh_footprint(Tenant& t);
  void publish_mode(Tenant& t);
  bool overloaded() const;
  void degrade_all();
  Admission ingest_locked(Tenant& t, std::span<const Addr> refs,
                          std::chrono::steady_clock::time_point now);

  core::PardaRuntime* runtime_;
  Config config_;
  mutable std::mutex mu_;  // guards tenants_ (map shape, not the sessions)
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::atomic<std::uint64_t> global_footprint_{0};
  std::atomic<bool> draining_{false};
  std::mutex drain_mu_;
  std::map<std::string, Histogram> drained_;
  bool drained_valid_ = false;
  obs::TelemetryServer* mounted_ = nullptr;
  // Service-level metrics.
  obs::Counter* degraded_total_;     // "tenant.degraded"
  obs::Counter* quarantined_total_;  // "tenant.quarantined"
  obs::Counter* shed_total_;         // "serve.shed"
  obs::Counter* rejected_total_;     // "serve.rejected"
  obs::Gauge* tenants_gauge_;        // "serve.tenants"
};

/// Parses an ingest frame body into addresses. content_type selects the
/// codec: "application/octet-stream" = little-endian u64s (length must be
/// a multiple of 8), anything else = text, read by read_address_lines
/// (util/parse.hpp) like a .txt trace: one decimal or 0x-hex address per
/// line, blank and '#' comment lines skipped. Returns false on malformed
/// input (the caller quarantines the tenant).
bool parse_frame(std::string_view content_type, std::string_view body,
                 std::vector<Addr>& out);

}  // namespace parda::serve

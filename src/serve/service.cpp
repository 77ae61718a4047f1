#include "serve/service.hpp"

#include <cstring>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace parda::serve {

namespace {

using Request = obs::TelemetryServer::Request;
using Response = obs::TelemetryServer::Response;

/// Tenant names double as metric label values and URL path segments, so
/// the alphabet is restricted to characters safe in both.
bool valid_tenant_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Response error_response(Admission a) {
  json::Writer w;
  w.begin_object().key("error").value(to_string(a)).end_object();
  return Response{http_status(a), "application/json", w.take()};
}

void write_status(json::Writer& w, const MrcService::TenantStatus& s) {
  w.begin_object();
  w.key("name").value(s.name);
  w.key("mode").value(to_string(s.mode));
  w.key("references").value(s.references);
  w.key("windows").value(s.windows);
  w.key("aborts").value(s.aborts);
  w.key("footprint_bytes").value(s.footprint_bytes);
  w.key("sample_rate").value(s.sample_rate);
  w.end_object();
}

/// Applies an HTTP registration body onto the service defaults. Only the
/// analysis shape and quotas are client-settable; fault plans are not.
bool parse_tenant_config(std::string_view body, TenantConfig& cfg) {
  if (trim(body).empty()) return true;
  json::Value v;
  try {
    v = json::parse(body);
  } catch (const json::JsonError&) {
    return false;
  }
  if (!v.is_object()) return false;
  try {
    if (const auto* f = v.find("bound")) cfg.bound = f->as_u64();
    if (const auto* f = v.find("window")) cfg.window = f->as_u64();
    if (const auto* f = v.find("decay")) cfg.decay = f->as_double();
    if (const auto* f = v.find("num_procs")) {
      const std::int64_t np = f->as_i64();
      if (np < 1 || np > 64) return false;
      cfg.num_procs = static_cast<int>(np);
    }
    if (const auto* q = v.find("quotas")) {
      if (!q->is_object()) return false;
      if (const auto* f = q->find("max_refs_per_sec"))
        cfg.quotas.max_refs_per_sec = f->as_u64();
      if (const auto* f = q->find("max_batch_refs"))
        cfg.quotas.max_batch_refs = static_cast<std::size_t>(f->as_u64());
      if (const auto* f = q->find("max_queued_bytes"))
        cfg.quotas.max_queued_bytes = f->as_u64();
      if (const auto* f = q->find("memory_quota_bytes"))
        cfg.quotas.memory_quota_bytes = f->as_u64();
      if (const auto* f = q->find("sampler_tracked"))
        cfg.quotas.sampler_tracked = static_cast<std::size_t>(f->as_u64());
      if (const auto* f = q->find("max_aborts"))
        cfg.quotas.max_aborts = f->as_u64();
    }
  } catch (const json::JsonError&) {
    return false;
  }
  return cfg.bound >= 1 && cfg.window >= 1 &&
         cfg.window <= kMaxTenantWindow && cfg.decay > 0.0 &&
         cfg.decay <= 1.0 && cfg.num_procs >= 1 && cfg.num_procs <= 64 &&
         cfg.quotas.sampler_tracked >= 1;
}

}  // namespace

const char* to_string(Admission a) noexcept {
  switch (a) {
    case Admission::kOk:
      return "ok";
    case Admission::kDegraded:
      return "degraded";
    case Admission::kRateLimited:
      return "rate_limited";
    case Admission::kQueueFull:
      return "queue_full";
    case Admission::kBatchTooLarge:
      return "batch_too_large";
    case Admission::kQuarantined:
      return "quarantined";
    case Admission::kShedding:
      return "shedding";
    case Admission::kDraining:
      return "draining";
    case Admission::kUnknownTenant:
      return "unknown_tenant";
    case Admission::kAlreadyExists:
      return "already_exists";
    case Admission::kTenantLimit:
      return "tenant_limit";
    case Admission::kMalformed:
      return "malformed";
  }
  return "unknown";
}

int http_status(Admission a) noexcept {
  switch (a) {
    case Admission::kOk:
    case Admission::kDegraded:
      return 200;
    case Admission::kRateLimited:
    case Admission::kQueueFull:
      return 429;
    case Admission::kBatchTooLarge:
      return 413;
    case Admission::kQuarantined:
    case Admission::kAlreadyExists:
      return 409;
    case Admission::kShedding:
    case Admission::kDraining:
    case Admission::kTenantLimit:
      return 503;
    case Admission::kUnknownTenant:
      return 404;
    case Admission::kMalformed:
      return 400;
  }
  return 500;
}

bool parse_frame(std::string_view content_type, std::string_view body,
                 std::vector<Addr>& out) {
  out.clear();
  if (trim(content_type.substr(0, content_type.find(';'))) ==
      "application/octet-stream") {
    if (body.size() % 8 != 0) return false;
    out.reserve(body.size() / 8);
    for (std::size_t i = 0; i + 8 <= body.size(); i += 8) {
      std::uint64_t v = 0;
      std::memcpy(&v, body.data() + i, 8);  // build targets little-endian
      out.push_back(static_cast<Addr>(v));
    }
    return true;
  }
  // Text: one address per line, read like a .txt trace.
  return !read_address_lines(body, out).has_value();
}

MrcService::MrcService(core::PardaRuntime& runtime, Config config)
    : runtime_(&runtime),
      config_(std::move(config)),
      degraded_total_(&obs::registry().counter("tenant.degraded")),
      quarantined_total_(&obs::registry().counter("tenant.quarantined")),
      shed_total_(&obs::registry().counter("serve.shed")),
      rejected_total_(&obs::registry().counter("serve.rejected")),
      tenants_gauge_(&obs::registry().gauge("serve.tenants")) {
  PARDA_CHECK(config_.max_tenants >= 1);
  PARDA_CHECK_MSG(config_.tenant_defaults.window <= kMaxTenantWindow,
                  "tenant_defaults.window is above kMaxTenantWindow");
}

MrcService::~MrcService() {
  if (mounted_ != nullptr) mounted_->set_handler({});
}

void MrcService::mount() {
  obs::TelemetryServer* server = runtime_->telemetry();
  PARDA_CHECK(server != nullptr);
  mounted_ = server;
  server->set_handler(
      [this](const Request& request) { return route(request); });
}

Admission MrcService::register_tenant(const std::string& name) {
  return register_tenant(name, config_.tenant_defaults);
}

Admission MrcService::register_tenant(const std::string& name,
                                      const TenantConfig& config) {
  if (!valid_tenant_name(name)) return Admission::kMalformed;
  if (draining()) return Admission::kDraining;
  std::lock_guard<std::mutex> lock(mu_);
  if (tenants_.contains(name)) return Admission::kAlreadyExists;
  if (tenants_.size() >= config_.max_tenants) return Admission::kTenantLimit;
  auto tenant = std::make_unique<Tenant>(name, *runtime_, config);
  const auto labeled = [&name](std::string_view base) {
    std::string full(base);
    full += "{tenant=";
    full += name;
    full += "}";
    return full;
  };
  auto& reg = obs::registry();
  tenant->ingested = &reg.counter(labeled("serve.ingest_refs"));
  tenant->rejected = &reg.counter(labeled("serve.rejected_batches"));
  tenant->abort_count = &reg.counter(labeled("serve.window_aborts"));
  tenant->shed = &reg.counter(labeled("serve.shed_batches"));
  tenant->degraded = &reg.counter(labeled("serve.degraded"));
  tenant->quarantined = &reg.counter(labeled("serve.quarantined"));
  tenant->footprint = &reg.gauge(labeled("serve.tenant_footprint_bytes"));
  tenant->mode_gauge = &reg.gauge(labeled("serve.tenant_mode"));
  publish_mode(*tenant);
  refresh_footprint(*tenant);
  tenants_.emplace(name, std::move(tenant));
  tenants_gauge_->set(tenants_.size());
  return Admission::kOk;
}

MrcService::Tenant* MrcService::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(name);
  // Tenants are never erased, so the pointer stays valid for the
  // service's lifetime even after the map lock drops.
  return it == tenants_.end() ? nullptr : it->second.get();
}

Admission MrcService::ingest(const std::string& name,
                             std::span<const Addr> refs) {
  return ingest(name, refs, std::chrono::steady_clock::now());
}

Admission MrcService::ingest(const std::string& name,
                             std::span<const Addr> refs,
                             std::chrono::steady_clock::time_point now) {
  if (draining()) {
    rejected_total_->increment();
    return Admission::kDraining;
  }
  Tenant* tenant = find(name);
  if (tenant == nullptr) {
    rejected_total_->increment();
    return Admission::kUnknownTenant;
  }
  if (overloaded()) {
    if (config_.shed == ShedPolicy::kRejectNewest) {
      shed_total_->increment();
      rejected_total_->increment();
      tenant->rejected->increment();
      tenant->shed->increment();
      return Admission::kShedding;
    }
    degrade_all();
  }
  std::lock_guard<std::mutex> lock(tenant->mu);
  return ingest_locked(*tenant, refs, now);
}

Admission MrcService::ingest_locked(
    Tenant& t, std::span<const Addr> refs,
    std::chrono::steady_clock::time_point now) {
  const auto reject = [&](Admission a) {
    t.rejected->increment();
    rejected_total_->increment();
    return a;
  };
  if (t.session.mode() == TenantMode::kQuarantined) {
    return reject(Admission::kQuarantined);
  }
  const TenantQuotas& quotas = t.session.config().quotas;
  if (refs.size() > quotas.max_batch_refs) {
    return reject(Admission::kBatchTooLarge);
  }
  if (quotas.max_queued_bytes != 0) {
    const std::uint64_t queued =
        (t.session.pending_refs() + refs.size()) * sizeof(Addr);
    if (queued > quotas.max_queued_bytes) return reject(Admission::kQueueFull);
  }
  if (!t.session.try_consume(refs.size(), now)) {
    return reject(Admission::kRateLimited);
  }
  try {
    t.session.feed(refs);
  } catch (const std::exception&) {
    // The aborted window's references are gone; the pool has already
    // recycled the poisoned World. Quarantine once the tenant exhausts its
    // abort quota; below it, the tenant keeps serving (the batch WAS
    // admitted — the analysis loss shows in the aborts counter).
    t.abort_count->increment();
    if (t.session.aborts() >= quotas.max_aborts) {
      t.session.quarantine();
      quarantined_total_->increment();
      t.quarantined->increment();
      publish_mode(t);
      refresh_footprint(t);
      return Admission::kQuarantined;
    }
  }
  t.ingested->add(refs.size());
  if (t.session.mode() == TenantMode::kExact &&
      quotas.memory_quota_bytes != 0 &&
      t.session.footprint_bytes() > quotas.memory_quota_bytes) {
    t.session.degrade();
    degraded_total_->increment();
    t.degraded->increment();
    publish_mode(t);
  }
  refresh_footprint(t);
  return t.session.mode() == TenantMode::kDegraded ? Admission::kDegraded
                                                   : Admission::kOk;
}

bool MrcService::overloaded() const {
  if (config_.max_pending_jobs != 0 &&
      runtime_->pending_jobs() >= config_.max_pending_jobs) {
    return true;
  }
  return config_.global_memory_quota_bytes != 0 &&
         global_footprint_bytes() > config_.global_memory_quota_bytes;
}

void MrcService::degrade_all() {
  std::vector<Tenant*> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.reserve(tenants_.size());
    for (auto& [name, tenant] : tenants_) all.push_back(tenant.get());
  }
  for (Tenant* tenant : all) {
    std::lock_guard<std::mutex> lock(tenant->mu);
    if (tenant->session.mode() != TenantMode::kExact) continue;
    tenant->session.degrade();
    degraded_total_->increment();
    tenant->degraded->increment();
    publish_mode(*tenant);
    refresh_footprint(*tenant);
  }
}

void MrcService::refresh_footprint(Tenant& t) {
  const std::uint64_t now = t.session.footprint_bytes();
  t.footprint->set(now);
  // Unsigned wraparound makes the delta exact for shrinks too.
  global_footprint_.fetch_add(now - t.reported_footprint,
                              std::memory_order_relaxed);
  t.reported_footprint = now;
}

void MrcService::publish_mode(Tenant& t) {
  t.mode_gauge->set(static_cast<std::uint64_t>(t.session.mode()));
}

std::optional<MrcService::TenantStatus> MrcService::status(
    const std::string& name) const {
  Tenant* tenant = find(name);
  if (tenant == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(tenant->mu);
  TenantStatus s;
  s.name = tenant->session.name();
  s.mode = tenant->session.mode();
  s.references = tenant->session.references_seen();
  s.windows = tenant->session.windows_completed();
  s.aborts = tenant->session.aborts();
  s.footprint_bytes = tenant->session.footprint_bytes();
  s.sample_rate = tenant->session.sample_rate();
  return s;
}

std::optional<Histogram> MrcService::histogram(const std::string& name) {
  Tenant* tenant = find(name);
  if (tenant == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(tenant->mu);
  try {
    return tenant->session.snapshot();
  } catch (const std::exception&) {
    // Snapshot analyzes the pending exact window; an abort there counts
    // against the quota like any other aborted window job.
    tenant->abort_count->increment();
    tenant->session.record_abort();
    if (tenant->session.aborts() >= tenant->session.config().quotas.max_aborts) {
      tenant->session.quarantine();
      quarantined_total_->increment();
      tenant->quarantined->increment();
      publish_mode(*tenant);
      refresh_footprint(*tenant);
    }
    return std::nullopt;
  }
}

std::vector<std::string> MrcService::tenant_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;
}

std::size_t MrcService::tenant_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

std::map<std::string, Histogram> MrcService::drain() {
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (drained_valid_) return drained_;
  draining_.store(true, std::memory_order_release);
  std::vector<std::pair<std::string, Tenant*>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.reserve(tenants_.size());
    for (auto& [name, tenant] : tenants_) {
      all.emplace_back(name, tenant.get());
    }
  }
  for (auto& [name, tenant] : all) {
    std::lock_guard<std::mutex> lock(tenant->mu);
    try {
      drained_[name] = tenant->session.flush();
    } catch (const std::exception&) {
      // The tenant's final window job aborted during drain: quarantine it
      // and flush the last safe aggregate instead of crashing the drain.
      tenant->abort_count->increment();
      tenant->session.record_abort();
      tenant->session.quarantine();
      quarantined_total_->increment();
      tenant->quarantined->increment();
      publish_mode(*tenant);
      drained_[name] = tenant->session.snapshot();
    }
    refresh_footprint(*tenant);
  }
  drained_valid_ = true;
  return drained_;
}

std::optional<Response> MrcService::route(const Request& request) {
  const std::string& path = request.path;
  if (request.method == "POST" && path.starts_with("/tenants/")) {
    const std::string name = path.substr(9);
    TenantConfig cfg = config_.tenant_defaults;
    if (!parse_tenant_config(request.body, cfg)) {
      return error_response(Admission::kMalformed);
    }
    const Admission a = register_tenant(name, cfg);
    if (!admitted(a)) return error_response(a);
    json::Writer w;
    w.begin_object();
    w.key("status").value("registered");
    w.key("tenant").value(name);
    w.end_object();
    return Response{200, "application/json", w.take()};
  }
  if (request.method == "GET" && (path == "/tenants" || path == "/tenants/")) {
    json::Writer w;
    w.begin_object();
    w.key("schema").value("parda.tenants.v1");
    w.key("draining").value(draining());
    w.key("tenants").begin_array();
    for (const std::string& name : tenant_names()) {
      if (const auto s = status(name)) write_status(w, *s);
    }
    w.end_array();
    w.end_object();
    return Response{200, "application/json", w.take()};
  }
  if (request.method == "GET" && path.starts_with("/tenants/")) {
    std::string rest = path.substr(9);
    const bool want_histogram = rest.ends_with("/histogram");
    if (want_histogram) rest.resize(rest.size() - 10);
    if (want_histogram) {
      if (find(rest) == nullptr) {
        return error_response(Admission::kUnknownTenant);
      }
      const auto hist = histogram(rest);
      if (!hist) return error_response(Admission::kQuarantined);
      return Response{200, "application/json", hist->to_json()};
    }
    const auto s = status(rest);
    if (!s) return error_response(Admission::kUnknownTenant);
    json::Writer w;
    write_status(w, *s);
    return Response{200, "application/json", w.take()};
  }
  if (request.method == "POST" && path.starts_with("/ingest/")) {
    const std::string name = path.substr(8);
    Tenant* tenant = find(name);
    if (tenant == nullptr) return error_response(Admission::kUnknownTenant);
    std::vector<Addr> refs;
    if (!parse_frame(request.content_type, request.body, refs)) {
      // A malformed frame is hostile-client behavior: quarantine, per the
      // isolation contract (TraceFormatError-class failures are terminal).
      std::lock_guard<std::mutex> lock(tenant->mu);
      if (tenant->session.mode() != TenantMode::kQuarantined) {
        tenant->session.quarantine();
        quarantined_total_->increment();
        tenant->quarantined->increment();
        publish_mode(*tenant);
        refresh_footprint(*tenant);
      }
      return error_response(Admission::kMalformed);
    }
    const Admission a = ingest(name, refs);
    if (!admitted(a)) return error_response(a);
    json::Writer w;
    w.begin_object();
    w.key("status").value(to_string(a));
    w.key("accepted").value(static_cast<std::uint64_t>(refs.size()));
    w.end_object();
    return Response{200, "application/json", w.take()};
  }
  return std::nullopt;
}

}  // namespace parda::serve

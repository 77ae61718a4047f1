// parda_serve: the long-running multi-tenant MRC ingest service.
//
//   ./parda_serve --port=0 --max-tenants=32 --memory-quota=8388608
//
// Tenants register and stream references over the telemetry server's
// HTTP surface (see DESIGN.md "Serving & isolation model"):
//
//   curl -X POST http://127.0.0.1:$PORT/tenants/alice
//   curl -X POST --data-binary $'1\n2\n1\n' http://127.0.0.1:$PORT/ingest/alice
//   curl http://127.0.0.1:$PORT/tenants
//   curl http://127.0.0.1:$PORT/tenants/alice/histogram
//
// Startup prints "PARDA_SERVE_PORT=<port>" as the first stdout line — the
// machine-parseable contract scripts use to resolve --port=0.
//
// SIGTERM/SIGINT drain gracefully: admission stops, every tenant's
// in-flight window is finished and folded, per-tenant parda.histogram.v1
// files land in --flush-dir (when set), and the process exits 0.
//
// Exit codes: 0 clean (drained) shutdown, 1 runtime failure (e.g. the
// port cannot be bound), 2 usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "core/runtime.hpp"
#include "hist/report.hpp"
#include "obs/obs.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void on_signal(int) { g_shutdown = 1; }

int run_server(int argc, char** argv) {
  using namespace parda;

  std::uint64_t port = 0;
  int procs = 2;
  std::uint64_t bound = 1 << 16;
  std::uint64_t window = 1 << 14;
  double decay = 1.0;
  std::uint64_t max_tenants = 64;
  std::uint64_t rate_limit = 0;
  std::uint64_t memory_quota = 0;
  std::uint64_t sampler_tracked = 4096;
  std::uint64_t max_aborts = 1;
  std::uint64_t global_quota = 0;
  std::uint64_t max_pending = 0;
  std::string shed = "reject";
  std::string flush_dir;
  std::uint64_t duration_ms = 0;
  std::string log_level_name;
  std::string flight_recorder;

  CliParser cli("Parda multi-tenant MRC ingest service");
  cli.add_flag("port", &port, "listen port on 127.0.0.1 (0 = ephemeral)");
  cli.add_flag("procs", &procs, "ranks per tenant window job");
  cli.add_flag("bound", &bound, "default tenant cache bound");
  cli.add_flag("window", &window, "default tenant window (references)");
  cli.add_flag("decay", &decay, "default tenant window decay in (0, 1]");
  cli.add_flag("max-tenants", &max_tenants, "registered-tenant cap");
  cli.add_flag("rate-limit", &rate_limit,
               "default tenant quota: references/second (0 = unlimited)");
  cli.add_flag("memory-quota", &memory_quota,
               "default tenant quota: resident bytes before degradation to "
               "fixed-size sampling (0 = never degrade)");
  cli.add_flag("sampler-tracked", &sampler_tracked,
               "degraded-mode sampler budget (distinct addresses)");
  cli.add_flag("max-aborts", &max_aborts,
               "aborted window jobs tolerated before quarantine");
  cli.add_flag("global-quota", &global_quota,
               "service-wide resident-byte overload threshold (0 = off)");
  cli.add_flag("max-pending", &max_pending,
               "pending-job overload threshold (0 = off)");
  cli.add_flag("shed", &shed,
               "overload policy: reject (bounce new batches 503) or "
               "degrade (downgrade every tenant to sampling)");
  cli.add_flag("flush-dir", &flush_dir,
               "drain: write <tenant>.hist.json files here");
  cli.add_flag("duration-ms", &duration_ms,
               "serve for N ms then drain (0 = until SIGTERM/SIGINT)");
  cli.add_flag("log-level", &log_level_name,
               "structured log threshold: trace|debug|info|warn|error|off");
  cli.add_flag("flight-recorder", &flight_recorder,
               "write a parda.flightrec.v1 crash dump to FILE on a fatal "
               "signal or unhandled error (also $PARDA_FLIGHT_RECORDER)");
  cli.parse(argc - 1, argv + 1);

  if (port > 65535) usage_error("bad --port %llu",
                                static_cast<unsigned long long>(port));
  if (procs == 0) usage_error("--procs must be positive");
  if (bound == 0) usage_error("--bound must be positive");
  if (window == 0 || window > serve::kMaxTenantWindow) {
    usage_error("--window must be in [1, %llu]",
                static_cast<unsigned long long>(serve::kMaxTenantWindow));
  }
  if (decay <= 0.0 || decay > 1.0) usage_error("--decay must be in (0, 1]");
  if (max_tenants == 0) usage_error("--max-tenants must be positive");
  if (sampler_tracked == 0) usage_error("--sampler-tracked must be positive");
  if (shed != "reject" && shed != "degrade") {
    usage_error("bad --shed '%s' (expected reject|degrade)", shed.c_str());
  }
  if (!flush_dir.empty()) {
    // Created up front so a bad path fails the launch, not the drain.
    std::error_code ec;
    std::filesystem::create_directories(flush_dir, ec);
    if (ec) {
      usage_error("cannot create --flush-dir '%s': %s", flush_dir.c_str(),
                  ec.message().c_str());
    }
  }
  if (!log_level_name.empty()) {
    const auto parsed = obs::parse_log_level(log_level_name);
    if (!parsed.has_value()) {
      usage_error("bad --log-level '%s'", log_level_name.c_str());
    }
    obs::set_log_level(*parsed);
  }

  if (!flight_recorder.empty()) {
    obs::flightrec_configure(flight_recorder, /*process=*/0);
  }
  obs::flightrec_install_signal_handlers();

  core::RuntimeOptions runtime_options;
  runtime_options.serve_port = static_cast<std::uint16_t>(port);
  core::PardaRuntime runtime(runtime_options);

  serve::MrcService::Config config;
  config.max_tenants = max_tenants;
  config.global_memory_quota_bytes = global_quota;
  config.max_pending_jobs = max_pending;
  config.shed = shed == "degrade" ? serve::ShedPolicy::kDegradeAll
                                  : serve::ShedPolicy::kRejectNewest;
  config.tenant_defaults.bound = bound;
  config.tenant_defaults.window = window;
  config.tenant_defaults.decay = decay;
  config.tenant_defaults.num_procs = procs;
  config.tenant_defaults.quotas.max_refs_per_sec = rate_limit;
  config.tenant_defaults.quotas.memory_quota_bytes = memory_quota;
  config.tenant_defaults.quotas.sampler_tracked =
      static_cast<std::size_t>(sampler_tracked);
  config.tenant_defaults.quotas.max_aborts = max_aborts;

  serve::MrcService service(runtime, config);
  service.mount();

  std::printf("PARDA_SERVE_PORT=%u\n",
              static_cast<unsigned>(runtime.serve_port()));
  std::printf("serving tenants on http://127.0.0.1:%u "
              "(/tenants /ingest/<name> /metrics /healthz)\n",
              static_cast<unsigned>(runtime.serve_port()));
  std::fflush(stdout);

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  const auto started = std::chrono::steady_clock::now();
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (duration_ms > 0) {
      const auto elapsed = std::chrono::steady_clock::now() - started;
      if (elapsed >= std::chrono::milliseconds(duration_ms)) break;
    }
  }

  std::printf("draining %zu tenants\n", service.tenant_count());
  std::fflush(stdout);
  const auto flushed = service.drain();
  for (const auto& [name, hist] : flushed) {
    if (!flush_dir.empty()) {
      write_text_file(flush_dir + "/" + name + ".hist.json",
                      hist.to_json() + "\n");
    }
    std::printf("tenant %s: %llu references, %llu distinct\n", name.c_str(),
                static_cast<unsigned long long>(hist.total()),
                static_cast<unsigned long long>(hist.infinities()));
  }
  std::printf("drained\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_server(argc, argv);
  } catch (const parda::obs::ServerBindError& e) {
    std::fprintf(stderr, "parda_serve: cannot bind port %u: %s\n",
                 static_cast<unsigned>(e.port()), e.what());
    return parda::kExitRuntime;
  } catch (const std::exception& e) {
    parda::obs::flightrec_dump(std::string("parda_serve: ") + e.what());
    std::fprintf(stderr, "parda_serve: %s\n", e.what());
    return parda::kExitRuntime;
  }
}

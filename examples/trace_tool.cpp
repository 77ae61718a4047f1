// trace_tool: generate, convert, and analyze trace files from the command
// line — the offline companion to the streaming pipeline.
//
//   ./trace_tool gen --workload=lbm --refs=100000 --out=lbm.trc
//   ./trace_tool analyze lbm.trc --procs=4 --bound=2048  # mmap'd, offline
//   ./trace_tool analyze lbm.trc --engine=lru        # raw-speed log2 MRC
//   ./trace_tool analyze lbm.trc --stream --pipe=65536 --watchdog-ms=1000
//   ./trace_tool analyze lbm.trc --stream --metrics-out=m.json
//                --trace-spans=s.json
//   ./trace_tool analyze lbm.trc --stream --serve=0 --report
//   ./trace_tool analyze lbm.trc --transport=shm          # real wire, 1 proc
//   ./trace_tool analyze lbm.trc --transport=tcp --rank=0
//                --peers=host0:7000,host1:7000            # distributed
//   ./trace_tool analyze lbm.trz --procs=8           # parallel .trz decode
//   ./trace_tool checkmetrics scrape.prom
//   ./trace_tool convert lbm.trc lbm.txt
//   ./trace_tool convert lbm.trc lbm.trz --chunk-refs=65536
//   ./trace_tool convert old.trz new.trz                  # v1 -> chunked v2
//
// The transport, log level and fault plan all resolve through the layered
// config rule: the CLI flag beats the environment variable
// ($PARDA_TRANSPORT / $PARDA_LOG_LEVEL / $PARDA_FAULT_PLAN) beats the
// default.
// The trace container picks how the file reaches the ranks: .trz archives
// are decoded per rank, anything else is mapped, and --stream streams the
// file through a pipe. The parallel engine therefore needs a .trc/.bin
// file or a chunked v2 .trz; convert .txt traces and v1 archives first.
// gen and convert write every .trz as a chunked v2 archive.
//
// Exit codes: 0 success, 1 runtime failure (missing/corrupt trace, aborted
// analysis, invalid exposition format), 2 usage error (bad flag or
// argument).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>

#include "comm/fault.hpp"
#include "comm/transport/spec.hpp"
#include "core/file_analysis.hpp"
#include "core/parda.hpp"
#include "core/runtime.hpp"
#include "seq/lru_chain.hpp"
#include "seq/olken.hpp"
#include "hist/mrc.hpp"
#include "hist/report.hpp"
#include "obs/obs.hpp"
#include "trace/source.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/config.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/parse.hpp"
#include "workload/spec.hpp"

namespace {

std::vector<parda::Addr> load(const std::string& path) {
  if (path.ends_with(".txt")) return parda::read_trace_text(path);
  if (path.ends_with(".trz")) return parda::read_trace_compressed(path);
  return parda::read_trace_binary(path);
}

void store(const std::string& path, const std::vector<parda::Addr>& trace,
           std::uint64_t chunk_refs) {
  if (path.ends_with(".txt")) {
    parda::write_trace_text(path, trace);
  } else if (path.ends_with(".trz")) {
    parda::write_trace_chunked(path, trace, chunk_refs);
  } else {
    parda::write_trace_binary(path, trace);
  }
}

/// Validates --chunk-refs for the writing commands (gen and convert): it
/// must be positive, and it means something only for a .trz output.
void check_chunk_refs(const parda::CliParser& cli, const char* command,
                      const std::string& out_path, std::uint64_t chunk_refs) {
  using parda::usage_error;
  if (chunk_refs == 0) {
    usage_error("%s: --chunk-refs must be positive", command);
  }
  if (!out_path.ends_with(".trz") && cli.was_set("chunk-refs")) {
    usage_error("%s: --chunk-refs applies only to .trz outputs", command);
  }
}

constexpr const char* kEngineNames = "parda|lru|olken";

bool is_known_engine(const std::string& e) {
  return e == "parda" || e == "lru" || e == "olken";
}

/// Runs a whole trace through a sequential engine and publishes its
/// structural counters under "engine.*" (when telemetry is on), mirroring
/// what the parallel driver publishes per rank.
template <parda::ReuseAnalyzer A>
parda::Histogram run_seq(A analyzer, std::span<const parda::Addr> trace) {
  parda::Histogram h = parda::analyze_trace(analyzer, trace);
  if (parda::obs::enabled()) {
    analyzer.stats().publish(parda::obs::registry(), "engine");
  }
  return h;
}

parda::Histogram run_seq_engine(const std::string& engine,
                                std::span<const parda::Addr> trace,
                                std::uint64_t bound) {
  using namespace parda;
  if (engine == "lru") return run_seq(LruChainAnalyzer(bound), trace);
  return run_seq(OlkenAnalyzer(bound), trace);  // "olken"
}

/// Resolves the transport configuration: the --transport spec string
/// through the layered config rule (CLI > $PARDA_TRANSPORT > "threads"),
/// then the endpoint convenience flags (--rank/--peers/--segment) folded
/// on top. Every misconfiguration here is a usage error (exit 2) raised
/// before any runtime state exists.
parda::comm::TransportSpec resolve_transport(const parda::CliParser& cli,
                                             const std::string& transport_text,
                                             int rank,
                                             const std::string& peers,
                                             const std::string& segment,
                                             int procs) {
  using parda::comm::TransportKind;
  using parda::comm::TransportSpec;
  const parda::config::Resolved resolved = parda::config::resolve_flag(
      cli, "transport", transport_text, "PARDA_TRANSPORT", "threads");
  TransportSpec spec;
  try {
    spec = TransportSpec::parse(resolved.value);
  } catch (const parda::CheckError& e) {
    parda::usage_error("bad transport spec '%s' (from %s): %s",
                       resolved.value.c_str(),
                       parda::config::source_name(resolved.source), e.what());
  }
  if (cli.was_set("segment")) {
    if (spec.kind != TransportKind::kShm) {
      parda::usage_error("--segment applies only to --transport=shm");
    }
    spec.segment = segment;
  }
  if (cli.was_set("peers")) {
    if (spec.kind != TransportKind::kTcp) {
      parda::usage_error("--peers applies only to --transport=tcp");
    }
    // Accept ',' between endpoints on the command line (the one-string
    // spec grammar uses '+' because ',' separates its key=val pairs).
    spec.peers.clear();
    for (const std::string_view list : parda::split(peers, ',')) {
      for (const std::string_view peer : parda::split(list, '+')) {
        if (!peer.empty()) spec.peers.emplace_back(peer);
      }
    }
    if (spec.peers.empty()) {
      parda::usage_error("--peers needs at least one host:port endpoint");
    }
  }
  if (cli.was_set("rank")) {
    if (spec.kind == TransportKind::kThreads) {
      parda::usage_error(
          "--rank needs a cross-process transport (--transport=shm with "
          "--segment, or --transport=tcp with --peers)");
    }
    spec.local_rank = rank;
  }
  try {
    spec.validate(procs);
  } catch (const parda::CheckError& e) {
    parda::usage_error("bad transport configuration: %s", e.what());
  }
  return spec;
}

void print_result(const parda::PardaResult& result) {
  using namespace parda;
  std::printf("%s references, %s distinct, max distance %s\n",
              with_commas(result.hist.total()).c_str(),
              with_commas(result.hist.infinities()).c_str(),
              with_commas(result.hist.max_distance()).c_str());
  TablePrinter table({"cache size", "miss ratio"});
  for (const MrcPoint& p :
       miss_ratio_curve_pow2(result.hist, result.hist.max_distance() + 2)) {
    table.add_row(
        {words_human(p.cache_size), TablePrinter::fmt(p.miss_ratio, 4)});
  }
  table.print();
}

int run_tool(int argc, char** argv) {
  using namespace parda;

  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: trace_tool gen|analyze|convert|checkmetrics [args] "
                 "(--help for details)\n");
    return kExitUsage;
  }
  const std::string command = argv[1];

  std::string workload_name = "mcf";
  std::uint64_t refs = 100000;
  std::uint64_t seed = 1;
  std::uint64_t scale = kDefaultSpecScale;
  std::string out = "trace.trc";
  int procs = 4;
  std::uint64_t bound = 0;
  std::string engine = "parda";
  bool stream = false;
  std::uint64_t chunk = 1 << 16;
  std::uint64_t pipe_words = 1 << 20;
  std::uint64_t chunk_refs = kDefaultTrzChunkRefs;
  std::string fault_plan_spec;
  std::uint64_t watchdog_ms = 0;
  std::uint64_t timeout_ms = 0;
  std::uint64_t repeat = 1;
  std::string metrics_out;
  std::string trace_spans;
  std::string serve;  // "" = off; a port number, 0 = ephemeral
  bool report = false;
  std::string report_json;
  std::string log_level_name;
  std::string transport_text;
  int rank = 0;
  std::string peers;
  std::string segment;
  std::string flight_recorder;

  CliParser cli("Parda trace file tool");
  cli.add_flag("workload", &workload_name,
               "gen: SPEC profile name or workload spec string");
  cli.add_flag("refs", &refs, "gen: trace length");
  cli.add_flag("seed", &seed, "gen: random seed");
  cli.add_flag("scale", &scale, "gen: footprint scale");
  cli.add_flag("out", &out, "gen: output path (.trc binary, .txt text)");
  cli.add_flag("procs", &procs, "analyze: ranks");
  cli.add_flag("bound", &bound, "analyze: cache bound (0 = unbounded)");
  cli.add_flag("engine", &engine,
               "analyze: parda (parallel, default) or a sequential engine: "
               "lru|olken");
  cli.add_flag("stream", &stream,
               "analyze: stream the file through a bounded pipe");
  cli.add_flag("chunk", &chunk, "analyze --stream: per-rank chunk size C");
  cli.add_flag("pipe", &pipe_words,
               "analyze --stream: pipe capacity in words");
  cli.add_flag("chunk-refs", &chunk_refs,
               "gen/convert: references per chunk for .trz outputs");
  cli.add_flag("fault-plan", &fault_plan_spec,
               "fault injection plan (see DESIGN.md; also $PARDA_FAULT_PLAN)");
  cli.add_flag("watchdog-ms", &watchdog_ms,
               "stall watchdog sampling interval (0 = off)");
  cli.add_flag("timeout-ms", &timeout_ms,
               "per-op recv/barrier deadline (0 = wait forever)");
  cli.add_flag("repeat", &repeat,
               "analyze: run N times on one persistent runtime (perf "
               "comparisons; prints per-iteration wall time)");
  cli.add_flag("metrics-out", &metrics_out,
               "write a parda.metrics.v1 JSON snapshot to FILE");
  cli.add_flag("trace-spans", &trace_spans,
               "write chrome://tracing span JSON to FILE");
  cli.add_flag("serve", &serve,
               "serve live telemetry on 127.0.0.1:PORT while analyzing "
               "(0 = ephemeral; prints the bound port)");
  cli.add_flag("report", &report,
               "print the span-attribution report (per-phase critical "
               "path, straggler rank, per-rank utilization)");
  cli.add_flag("report-json", &report_json,
               "write the parda.spanreport.v1 JSON to FILE");
  cli.add_flag("log-level", &log_level_name,
               "structured log threshold: trace|debug|info|warn|error|off "
               "(also $PARDA_LOG_LEVEL)");
  cli.add_flag("transport", &transport_text,
               "comm wire: threads (default) | shm | tcp, with optional "
               "spec parameters 'kind:key=val,...' (also $PARDA_TRANSPORT)");
  cli.add_flag("rank", &rank,
               "distributed: the one rank THIS process hosts (peers run "
               "elsewhere); needs --transport=shm or tcp");
  cli.add_flag("peers", &peers,
               "distributed tcp: host:port per rank, comma-separated");
  cli.add_flag("segment", &segment,
               "distributed shm: named segment (e.g. /parda-run1) the rank "
               "processes rendezvous on");
  cli.add_flag("flight-recorder", &flight_recorder,
               "write a parda.flightrec.v1 crash dump to FILE on abort, "
               "fatal signal, or trace format error (%r expands to the "
               "process's rank; also $PARDA_FLIGHT_RECORDER)");
  cli.parse(argc - 1, argv + 1);

  if (engine == "interval" || engine == "naive" || engine == "splay" ||
      engine == "avl" || engine == "treap" || engine == "fenwick") {
    usage_error("--engine=%s is no longer a trace_tool engine; it remains "
                "in the tests and benches (--engine=olken runs Olken's "
                "algorithm)",
                engine.c_str());
  }
  if (!is_known_engine(engine)) {
    usage_error("bad --engine '%s' (expected %s)", engine.c_str(),
                kEngineNames);
  }

  const config::Resolved log_level = config::resolve_flag(
      cli, "log-level", log_level_name, "PARDA_LOG_LEVEL", "");
  if (!log_level.value.empty()) {
    const auto parsed = obs::parse_log_level(log_level.value);
    if (parsed.has_value()) {
      obs::set_log_level(*parsed);
    } else if (log_level.from_cli()) {
      usage_error("bad --log-level '%s'", log_level.value.c_str());
    } else {
      // A malformed environment value keeps the default threshold (the
      // lazy init in obs/log.cpp does the same) — just say so once.
      std::fprintf(stderr, "trace_tool: ignoring bad $PARDA_LOG_LEVEL '%s'\n",
                   log_level.value.c_str());
    }
  }

  const comm::TransportSpec transport =
      resolve_transport(cli, transport_text, rank, peers, segment, procs);

  // The flight recorder arms early, before any file or wire is touched:
  // CLI path beats $PARDA_FLIGHT_RECORDER (read lazily at dump time when
  // no path is configured here) beats off. %r in the path becomes the
  // rank this process hosts, so distributed launches can share one
  // template.
  {
    const config::Resolved rec = config::resolve_flag(
        cli, "flight-recorder", flight_recorder, "PARDA_FLIGHT_RECORDER", "");
    const int process = transport.distributed() ? transport.local_rank : 0;
    obs::flightrec_set_process(process);
    if (!rec.value.empty()) obs::flightrec_configure(rec.value, process);
    obs::flightrec_install_signal_handlers();
  }
  if (engine != "parda" && cli.was_set("transport") &&
      transport.kind != comm::TransportKind::kThreads) {
    usage_error("--transport=%s requires --engine=parda (sequential engines "
                "run in one thread, no wire involved)",
                comm::transport_kind_name(transport.kind));
  }

  std::optional<std::uint16_t> serve_port;
  if (!serve.empty()) {
    const std::optional<std::uint64_t> port = parse_u64(serve, 65535);
    if (!port) usage_error("bad --serve port '%s'", serve.c_str());
    serve_port = static_cast<std::uint16_t>(*port);
  }

  // Observability is compiled in but off; any telemetry output flag turns
  // it on for the whole process.
  if (!metrics_out.empty() || !trace_spans.empty() || serve_port ||
      report || !report_json.empty()) {
    obs::set_enabled(true);
  }

  if (command == "gen") {
    if (refs == 0) usage_error("gen: --refs must be positive");
    check_chunk_refs(cli, "gen", out, chunk_refs);
    // Accept either a bare Table IV profile name ("mcf") or a full
    // workload spec string ("zipf:m=100000,a=0.9", "mix:...", "spec:mcf").
    std::unique_ptr<Workload> w;
    if (find_spec_profile(workload_name) != nullptr) {
      w = make_spec_workload(workload_name, scale, seed);
    } else {
      w = parse_workload(workload_name, seed);
    }
    const auto trace = generate_trace(*w, refs);
    store(out, trace, chunk_refs);
    std::printf("wrote %s references of %s to %s\n",
                with_commas(refs).c_str(), w->name().c_str(), out.c_str());
    return 0;
  }
  if (command == "analyze") {
    if (cli.positionals().empty()) usage_error("analyze: missing trace path");
    if (procs == 0) usage_error("analyze: --procs must be positive");
    if (stream) {
      if (chunk == 0) usage_error("analyze: --chunk must be positive");
      if (chunk > SIZE_MAX / procs) {
        usage_error("analyze: --chunk times --procs overflows a phase");
      }
      if (pipe_words == 0) usage_error("analyze: --pipe must be positive");
    }

    if (repeat == 0) usage_error("analyze: --repeat must be positive");
    PardaResult result;
    if (engine != "parda") {
      // Sequential engines run inline — no runtime, no workers — so the
      // streaming/serving machinery does not apply.
      if (stream) {
        usage_error("analyze: --engine=%s is sequential; --stream supports "
                    "only --engine=parda",
                    engine.c_str());
      }
      if (serve_port) usage_error("analyze: --serve requires --engine=parda");
      const std::vector<Addr> trace = load(cli.positionals()[0]);
      for (std::uint64_t i = 0; i < repeat; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        result.hist = run_seq_engine(engine, trace, bound);
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - t0;
        result.stats.wall_seconds = wall.count();
        if (repeat > 1) {
          std::printf("iteration %llu: %.3f ms wall\n",
                      static_cast<unsigned long long>(i + 1),
                      wall.count() * 1e3);
        }
      }
    } else {
      comm::FaultPlan plan =
          comm::FaultPlan::parse(config::resolve_flag(cli, "fault-plan",
                                                      fault_plan_spec,
                                                      "PARDA_FAULT_PLAN", "")
                                     .value);
      if (transport.distributed()) {
        // One process = one rank: the pool, the watchdog's shared rank
        // board, and warm --repeat reuse are all single-process machinery.
        if (watchdog_ms > 0) {
          usage_error("analyze: --watchdog-ms needs an in-process world "
                      "(the stall watchdog samples every rank's progress "
                      "from shared memory)");
        }
        if (repeat != 1) {
          usage_error("analyze: --repeat needs an in-process world "
                      "(distributed worlds live for exactly one run)");
        }
      }
      PardaOptions options;
      options.num_procs = procs;
      options.bound = bound;
      options.chunk_words = chunk;
      options.run_options.transport = transport;
      if (!plan.empty()) options.run_options.fault_plan = &plan;
      if (watchdog_ms > 0) {
        options.run_options.watchdog_interval =
            std::chrono::milliseconds(watchdog_ms);
      }
      if (timeout_ms > 0) {
        options.run_options.op_timeout = std::chrono::milliseconds(timeout_ms);
      }

      // One persistent runtime for every iteration: with --repeat > 1 the
      // workers spawn once and every later analysis reuses them, so the
      // per-iteration times show the warm-pool effect directly.
      core::RuntimeOptions runtime_options;
      runtime_options.serve_port = serve_port;
      core::PardaRuntime runtime(runtime_options);
      if (serve_port) {
        // The PARDA_SERVE_PORT line is a machine-parseable contract:
        // scripts resolve an ephemeral --serve=0 port by grepping exactly
        // "^PARDA_SERVE_PORT=" (see scripts/run_telemetry_smoke.sh and
        // scripts/run_soak.sh). Keep it first and keep the format stable.
        std::printf("PARDA_SERVE_PORT=%u\n",
                    static_cast<unsigned>(runtime.serve_port()));
        std::printf("serving telemetry on http://127.0.0.1:%u "
                    "(/metrics /metrics.json /spans /healthz)\n",
                    static_cast<unsigned>(runtime.serve_port()));
        std::fflush(stdout);
      }
      auto session = runtime.session(options);
      const std::string& path = cli.positionals()[0];
      std::unique_ptr<TraceSource> source;
      if (!stream) {
        source = open_offline_source(path, path.ends_with(".trz")
                                               ? IngestMode::kTrz
                                               : IngestMode::kMmap);
      }
      for (std::uint64_t i = 0; i < repeat; ++i) {
        result = stream ? session.analyze_file(path, pipe_words)
                        : session.analyze(*source);
        if (repeat > 1) {
          std::printf("iteration %llu: %.3f ms wall\n",
                      static_cast<unsigned long long>(i + 1),
                      result.stats.wall_seconds * 1e3);
        }
      }
    }
    if (transport.distributed() && transport.local_rank != 0) {
      // The reduction roots at rank 0, so only that process holds the
      // merged histogram; siblings confirm completion and keep their
      // per-process telemetry outputs below.
      std::printf("rank %d done (results print on the rank 0 process)\n",
                  transport.local_rank);
    } else {
      print_result(result);
    }
    // Every telemetry output renders through the hub. On the hub of a
    // distributed run it covers the whole fleet (remote span timestamps
    // already rebased onto this process's clock at ingest); everywhere
    // else the hub holds no remote process and it covers this one.
    const obs::TelemetryHub& hub = obs::hub();
    if (!metrics_out.empty()) {
      write_text_file(metrics_out,
                      hub.merged_metrics_json(obs::registry()) + "\n");
      std::printf("wrote metrics snapshot to %s\n", metrics_out.c_str());
    }
    if (!trace_spans.empty()) {
      write_text_file(trace_spans,
                      hub.merged_chrome_json(obs::tracer()) + "\n");
      std::printf("wrote %zu trace spans to %s\n",
                  hub.merged_events(obs::tracer()).size(),
                  trace_spans.c_str());
    }
    if (report || !report_json.empty()) {
      obs::SpanReport span_report = obs::SpanReport::from_events(
          hub.merged_events(obs::tracer()), hub.merged_dropped(obs::tracer()));
      span_report.set_clock_uncertainty_ns(hub.max_uncertainty_ns());
      if (report) {
        std::printf("\n%s", span_report.to_table().c_str());
      }
      if (!report_json.empty()) {
        write_text_file(report_json, span_report.to_json() + "\n");
        std::printf("wrote span report to %s\n", report_json.c_str());
      }
    }
    return 0;
  }
  if (command == "checkmetrics") {
    if (cli.positionals().empty()) {
      usage_error("checkmetrics: missing exposition file path");
    }
    const std::string text = read_text_file(cli.positionals()[0]);
    const std::vector<std::string> problems = obs::validate_prometheus(text);
    if (problems.empty()) {
      std::printf("%s: valid Prometheus exposition\n",
                  cli.positionals()[0].c_str());
      return 0;
    }
    for (const std::string& p : problems) {
      std::fprintf(stderr, "%s: %s\n", cli.positionals()[0].c_str(),
                   p.c_str());
    }
    return kExitRuntime;
  }
  if (command == "convert") {
    if (cli.positionals().size() < 2) {
      usage_error("convert: need input and output paths");
    }
    check_chunk_refs(cli, "convert", cli.positionals()[1], chunk_refs);
    const auto trace = load(cli.positionals()[0]);
    store(cli.positionals()[1], trace, chunk_refs);
    std::printf("converted %zu references\n", trace.size());
    return 0;
  }
  usage_error(
      "unknown command '%s' (expected gen|analyze|convert|checkmetrics)",
      command.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_tool(argc, argv);
  } catch (const parda::obs::ServerBindError& e) {
    // A taken or unbindable --serve port is a runtime failure with a
    // dedicated diagnostic, not a crash: scripts distinguish it from
    // usage errors by the exit code.
    std::fprintf(stderr, "trace_tool: cannot bind telemetry port %u: %s\n",
                 static_cast<unsigned>(e.port()), e.what());
    return parda::kExitRuntime;
  } catch (const std::exception& e) {
    // Runtime failures (missing or corrupt traces, aborted analyses) get a
    // one-line diagnostic and an exit code distinct from usage errors. The
    // flight recorder captures the dying context (comm aborts already
    // dumped at the abort site; the first dump wins).
    parda::obs::flightrec_dump(std::string("trace_tool: ") + e.what());
    std::fprintf(stderr, "trace_tool: %s\n", e.what());
    return parda::kExitRuntime;
  }
}

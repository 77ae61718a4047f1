// Live-telemetry tests: SpanReport attribution math on synthetic span
// lists, the Prometheus exporter + hand-rolled format validator, the
// structured JSON-lines logger, the TelemetryServer's endpoint routing and
// real HTTP serving (including scrapes concurrent with an in-flight
// streaming analysis), and the end-to-end acceptance check that a
// fault-injected delay on one rank is automatically named as the
// straggler by `SpanReport`.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "../util/mutations.hpp"
#include "comm/fault.hpp"
#include "comm/transport/spec.hpp"
#include "core/parda.hpp"
#include "core/runtime.hpp"
#include "obs/obs.hpp"
#include "trace/trace_pipe.hpp"
#include "util/json.hpp"
#include "workload/generators.hpp"

namespace parda::obs {
namespace {

json::Value parse_ok(const std::string& text) { return json::parse(text); }

class ScopedEnable {
 public:
  ScopedEnable() : prev_(enabled()) { set_enabled(true); }
  ~ScopedEnable() { set_enabled(prev_); }

 private:
  bool prev_;
};

// ---------------------------------------------------------------------------
// SpanReport: attribution math on synthetic event lists.
// ---------------------------------------------------------------------------

SpanEvent ev(std::int64_t t0, std::int64_t t1, const char* op,
             std::uint32_t phase, std::int32_t rank) {
  return SpanEvent{t0, t1, op, phase, rank};
}

TEST(SpanReport, WaitRefinementAndStragglerSelfTime) {
  // Phase 0, three ranks. Rank 1 computes for the full 100 units; ranks 0
  // and 2 cover the same extent but spend 80 of it blocked — the classic
  // one-straggler shape.
  const std::vector<SpanEvent> events = {
      ev(0, 100, "infinity-pipeline", 0, 0),
      ev(10, 90, "recv-wait", 0, 0),
      ev(0, 100, "analyze", 0, 1),
      ev(0, 100, "infinity-pipeline", 0, 2),
      ev(15, 95, "barrier-wait", 0, 2),
  };
  const SpanReport report = SpanReport::from_events(events);

  ASSERT_EQ(report.phases().size(), 1u);
  const PhaseReport& phase = report.phases()[0];
  EXPECT_EQ(phase.phase, 0u);
  EXPECT_EQ(phase.t_begin_ns, 0);
  EXPECT_EQ(phase.t_end_ns, 100);
  EXPECT_EQ(phase.critical_path_ns, 100u);
  ASSERT_EQ(phase.ranks.size(), 3u);

  const RankSlice& r0 = phase.ranks[0];
  EXPECT_EQ(r0.total_ns, 100u);
  EXPECT_EQ(r0.wait_ns, 80u);
  EXPECT_EQ(r0.self_ns, 20u);
  const RankSlice& r1 = phase.ranks[1];
  EXPECT_EQ(r1.total_ns, 100u);
  EXPECT_EQ(r1.wait_ns, 0u);
  EXPECT_EQ(r1.self_ns, 100u);
  EXPECT_EQ(r1.compute_ns, 100u);

  // The straggler is the rank with the most SELF time, not the most wall
  // time — every rank spans the full extent here.
  EXPECT_EQ(phase.straggler_rank, 1);
  EXPECT_EQ(phase.straggler_self_ns, 100u);
  EXPECT_EQ(report.straggler_rank(), 1);
  // All three ranks cover the extent: no pipeline bubble.
  EXPECT_EQ(phase.bubble_ns, 0u);
  EXPECT_EQ(report.wall_ns(), 100u);
}

TEST(SpanReport, BubbleCountsUncoveredExtent) {
  // Rank 1 starts 40 units late: the phase extent is 100, rank 1 covers 60,
  // so the bubble is 40.
  const std::vector<SpanEvent> events = {
      ev(0, 100, "analyze", 2, 0),
      ev(40, 100, "analyze", 2, 1),
  };
  const SpanReport report = SpanReport::from_events(events);
  ASSERT_EQ(report.phases().size(), 1u);
  EXPECT_EQ(report.phases()[0].bubble_ns, 40u);
  EXPECT_EQ(report.phases()[0].critical_path_ns, 100u);
}

TEST(SpanReport, IoAndComputeSharesAndNoPhaseSortsLast) {
  const std::vector<SpanEvent> events = {
      ev(0, 30, "scatter", 1, 0),    ev(30, 90, "analyze", 1, 0),
      ev(0, 50, "analyze", 0, 0),    ev(200, 260, "final-reduce", kNoPhase, 0),
  };
  const SpanReport report = SpanReport::from_events(events);
  ASSERT_EQ(report.phases().size(), 3u);
  EXPECT_EQ(report.phases()[0].phase, 0u);
  EXPECT_EQ(report.phases()[1].phase, 1u);
  EXPECT_EQ(report.phases()[2].phase, kNoPhase);  // pseudo-phase sorts last

  const RankSlice& slice = report.phases()[1].ranks[0];
  EXPECT_EQ(slice.io_ns, 30u);
  EXPECT_EQ(slice.compute_ns, 60u);
  EXPECT_EQ(slice.total_ns, 90u);

  // Per-rank utilization folds every phase plus the pseudo-phase.
  ASSERT_EQ(report.ranks().size(), 1u);
  EXPECT_EQ(report.ranks()[0].busy_ns, 200u);
  EXPECT_EQ(report.ranks()[0].self_ns, 200u);
  EXPECT_GT(report.ranks()[0].utilization, 0.0);
}

TEST(SpanReport, JsonMatchesSpanReportV1Schema) {
  const std::vector<SpanEvent> events = {
      ev(0, 100, "analyze", 0, 0),
      ev(0, 80, "analyze", 0, 1),
      ev(120, 140, "final-reduce", kNoPhase, 0),
  };
  const SpanReport report = SpanReport::from_events(events, 7);
  const json::Value doc = parse_ok(report.to_json());
  EXPECT_EQ(doc.at("schema").as_string(), "parda.spanreport.v1");
  EXPECT_EQ(doc.at("spans_dropped").as_u64(), 7u);
  EXPECT_EQ(doc.at("straggler_rank").as_i64(), 0);
  EXPECT_EQ(doc.at("wall_ns").as_u64(), 140u);

  const auto& phases = doc.at("phases").array;
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].at("phase").as_u64(), 0u);
  EXPECT_EQ(phases[1].at("phase").kind,
            json::Value::Kind::kNull);  // kNoPhase -> null
  const auto& ranks = phases[0].at("ranks").array;
  ASSERT_EQ(ranks.size(), 2u);
  EXPECT_EQ(ranks[0].at("rank").as_i64(), 0);
  EXPECT_EQ(ranks[0].at("total_ns").as_u64(), 100u);
}

TEST(SpanReport, TableNamesRanksAndPhases) {
  const std::vector<SpanEvent> events = {
      ev(0, 100, "analyze", 3, 2),
      ev(0, 40, "reduce", kNoPhase, -1),  // driver work, no phase
  };
  const std::string table = SpanReport::from_events(events).to_table();
  EXPECT_NE(table.find("rank"), std::string::npos);
  EXPECT_NE(table.find("straggler"), std::string::npos);
  EXPECT_NE(table.find("driver"), std::string::npos);
  EXPECT_NE(table.find("3"), std::string::npos);
}

TEST(SpanReport, EmptyEventsProduceEmptyReport) {
  const SpanReport report = SpanReport::from_events({});
  EXPECT_TRUE(report.phases().empty());
  EXPECT_TRUE(report.ranks().empty());
  EXPECT_EQ(report.straggler_rank(), -1);
  EXPECT_EQ(report.wall_ns(), 0u);
  parse_ok(report.to_json());  // still well-formed JSON
}

// ---------------------------------------------------------------------------
// Prometheus exporter + hand-rolled validator.
// ---------------------------------------------------------------------------

TEST(PrometheusExport, RendersAndValidates) {
  ScopedEnable on;
  Registry reg;
  SpanTracer spans(16);

  Counter& bytes = reg.counter("test.bytes_sent");
  bytes.add_for_rank(0, 100);
  bytes.add_for_rank(1, 250);
  Gauge& np = reg.gauge("test.job_np");
  np.set_for_rank(0, 4);
  reg.timer("test.wait").record_ns(1500);
  spans.record(0, 10, "analyze", 0);

  const std::string text = to_prometheus(reg, spans, TelemetryHub{});
  EXPECT_NE(text.find("# TYPE parda_test_bytes_sent_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("parda_test_bytes_sent_total{rank=\"1\"} 250"),
            std::string::npos);
  EXPECT_NE(text.find("parda_test_job_np{rank=\"0\"} 4"), std::string::npos);
  EXPECT_NE(text.find("parda_test_wait_ns_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("parda_obs_spans_dropped_total"), std::string::npos);

  const std::vector<std::string> problems = validate_prometheus(text);
  EXPECT_TRUE(problems.empty())
      << "validator rejected our own exposition: " << problems[0];
}

/// A fixed registry and span ring for the single-process golden test:
/// counters with and without a {tenant=...} name block, a gauge whose last
/// value trails its max, an unlabeled timer, and spans on the driver and
/// ranks 0 and 1 (rank 1's 16-slot ring wraps and drops 2).
void fill_golden(Registry& reg, SpanTracer& spans) {
  reg.counter("golden.chunks").add_for_rank(-1, 5);
  reg.counter("golden.chunks").add_for_rank(0, 10);
  reg.counter("golden.chunks").add_for_rank(1, 20);
  reg.counter("golden.refs{tenant=alice}").add_for_rank(0, 7);
  reg.counter("golden.refs{tenant=bob}").add_for_rank(-1, 3);
  reg.gauge("golden.depth").set_for_rank(0, 9);
  reg.gauge("golden.depth").set_for_rank(1, 4);
  reg.gauge("golden.depth").set_for_rank(1, 2);
  TimerHistogram& wait = reg.timer("golden.wait");
  wait.record_ns(0);
  wait.record_ns(1500);
  wait.record_ns(3000);

  spans.record(0, 2500, "scatter");
  {
    ScopedThreadRank rank(0);
    spans.record(1000, 4000, "analyze", 0);
    spans.record(4000, 4500, "final-reduce");
  }
  {
    ScopedThreadRank rank(1);
    for (std::int64_t i = 0; i < 18; ++i) {
      spans.record(1000 * i, 1000 * i + 750, "infinity-pipeline",
                   static_cast<std::uint32_t>(i % 2));
    }
  }
}

// The literal single-process exposition and chrome trace of fill_golden:
// a process with no remote telemetry must keep rendering exactly this.
const char* const kGoldenPrometheus = R"prom(# HELP parda_golden_chunks_total Parda counter golden.chunks (rank="driver" is the unattributed shard)
# TYPE parda_golden_chunks_total counter
parda_golden_chunks_total{rank="driver"} 5
parda_golden_chunks_total{rank="0"} 10
parda_golden_chunks_total{rank="1"} 20
# HELP parda_golden_refs_total Parda counter golden.refs (rank="driver" is the unattributed shard)
# TYPE parda_golden_refs_total counter
parda_golden_refs_total{tenant="alice",rank="driver"} 0
parda_golden_refs_total{tenant="alice",rank="0"} 7
parda_golden_refs_total{tenant="bob",rank="driver"} 3
# HELP parda_golden_depth Parda gauge golden.depth (last value published per rank)
# TYPE parda_golden_depth gauge
parda_golden_depth{rank="driver"} 0
parda_golden_depth{rank="0"} 9
parda_golden_depth{rank="1"} 2
# HELP parda_golden_depth_max Parda gauge golden.depth lifetime high-water mark per rank
# TYPE parda_golden_depth_max gauge
parda_golden_depth_max{rank="driver"} 0
parda_golden_depth_max{rank="0"} 9
parda_golden_depth_max{rank="1"} 4
# HELP parda_golden_wait_ns Parda timer golden.wait in nanoseconds (log2 buckets, aggregated across ranks)
# TYPE parda_golden_wait_ns histogram
parda_golden_wait_ns_bucket{le="1"} 1
parda_golden_wait_ns_bucket{le="3"} 1
parda_golden_wait_ns_bucket{le="7"} 1
parda_golden_wait_ns_bucket{le="15"} 1
parda_golden_wait_ns_bucket{le="31"} 1
parda_golden_wait_ns_bucket{le="63"} 1
parda_golden_wait_ns_bucket{le="127"} 1
parda_golden_wait_ns_bucket{le="255"} 1
parda_golden_wait_ns_bucket{le="511"} 1
parda_golden_wait_ns_bucket{le="1023"} 1
parda_golden_wait_ns_bucket{le="2047"} 2
parda_golden_wait_ns_bucket{le="4095"} 3
parda_golden_wait_ns_bucket{le="+Inf"} 3
parda_golden_wait_ns_sum 4500
parda_golden_wait_ns_count 3
# HELP parda_obs_spans_dropped_total Span ring overwrites per rank shard (nonzero means the oldest spans were lost to wrap-around)
# TYPE parda_obs_spans_dropped_total counter
parda_obs_spans_dropped_total{rank="driver"} 0
parda_obs_spans_dropped_total{rank="1"} 2
)prom";
const char* const kGoldenChrome =
    R"json({"traceEvents":[{"name":"thread_name","ph":"M","pid":0,"tid":64,"args":{"name":"driver"}},)json"
    R"json({"name":"scatter","cat":"parda","ph":"X","pid":0,"tid":64,"ts":0,"dur":2.5,"args":{"rank":-1}},)json"
    R"json({"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank 0"}},)json"
    R"json({"name":"analyze","cat":"parda","ph":"X","pid":0,"tid":0,"ts":1,"dur":3,"args":{"rank":0,"phase":0}},)json"
    R"json({"name":"final-reduce","cat":"parda","ph":"X","pid":0,"tid":0,"ts":4,"dur":0.5,"args":{"rank":0}},)json"
    R"json({"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"rank 1"}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":2,"dur":0.75,"args":{"rank":1,"phase":0}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":3,"dur":0.75,"args":{"rank":1,"phase":1}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":4,"dur":0.75,"args":{"rank":1,"phase":0}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":5,"dur":0.75,"args":{"rank":1,"phase":1}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":6,"dur":0.75,"args":{"rank":1,"phase":0}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":7,"dur":0.75,"args":{"rank":1,"phase":1}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":8,"dur":0.75,"args":{"rank":1,"phase":0}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":9,"dur":0.75,"args":{"rank":1,"phase":1}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":10,"dur":0.75,"args":{"rank":1,"phase":0}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":11,"dur":0.75,"args":{"rank":1,"phase":1}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":12,"dur":0.75,"args":{"rank":1,"phase":0}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":13,"dur":0.75,"args":{"rank":1,"phase":1}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":14,"dur":0.75,"args":{"rank":1,"phase":0}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":15,"dur":0.75,"args":{"rank":1,"phase":1}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":16,"dur":0.75,"args":{"rank":1,"phase":0}},)json"
    R"json({"name":"infinity-pipeline","cat":"parda","ph":"X","pid":0,"tid":1,"ts":17,"dur":0.75,"args":{"rank":1,"phase":1}}],"displayTimeUnit":"ms","otherData":{"spansDropped":2}})json";

TEST(PrometheusExport, SingleProcessGoldenText) {
  ScopedEnable on;
  Registry reg;
  SpanTracer spans(16);
  fill_golden(reg, spans);
  const TelemetryHub no_remotes;
  EXPECT_EQ(to_prometheus(reg, spans, no_remotes), kGoldenPrometheus);
  EXPECT_EQ(no_remotes.merged_chrome_json(spans), kGoldenChrome);
  EXPECT_EQ(spans.to_chrome_json(), kGoldenChrome);
}

TEST(PrometheusValidator, FlagsBrokenDocuments) {
  // A well-formed miniature document passes...
  EXPECT_TRUE(validate_prometheus("# HELP a_total ok\n"
                                  "# TYPE a_total counter\n"
                                  "a_total{rank=\"0\"} 1\n")
                  .empty());
  // ...counters must end in _total...
  EXPECT_FALSE(validate_prometheus("# HELP a ok\n"
                                   "# TYPE a counter\n"
                                   "a 1\n")
                   .empty());
  // ...label values must escape backslashes/quotes/newlines...
  EXPECT_FALSE(validate_prometheus("# HELP a_total ok\n"
                                   "# TYPE a_total counter\n"
                                   "a_total{rank=\"b\"ad\"} 1\n")
                   .empty());
  // ...metric names have a restricted charset...
  EXPECT_FALSE(validate_prometheus("# HELP a-b ok\n"
                                   "# TYPE a-b gauge\n"
                                   "a-b 1\n")
                   .empty());
  // ...sample values must be numeric...
  EXPECT_FALSE(validate_prometheus("# HELP a ok\n"
                                   "# TYPE a gauge\n"
                                   "a banana\n")
                   .empty());
  // ...histograms need a +Inf bucket...
  EXPECT_FALSE(validate_prometheus("# HELP h ok\n"
                                   "# TYPE h histogram\n"
                                   "h_bucket{le=\"1\"} 1\n"
                                   "h_sum 1\n"
                                   "h_count 1\n")
                   .empty());
  // ...and cumulative buckets must be monotone.
  EXPECT_FALSE(validate_prometheus("# HELP h ok\n"
                                   "# TYPE h histogram\n"
                                   "h_bucket{le=\"1\"} 5\n"
                                   "h_bucket{le=\"2\"} 3\n"
                                   "h_bucket{le=\"+Inf\"} 5\n"
                                   "h_sum 1\n"
                                   "h_count 5\n")
                   .empty());
}

// ---------------------------------------------------------------------------
// Structured logging.
// ---------------------------------------------------------------------------

TEST(StructuredLog, EmitsOneJsonLineWithAttribution) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  const LogLevel prev = log_level();
  set_log_sink(sink);
  set_log_level(LogLevel::kInfo);

  {
    ScopedThreadRank rank(2);
    ScopedThreadPhase phase(7);
    log(LogLevel::kInfo, "test.event")
        .field("action", "delay")
        .field("ms", std::uint64_t{50})
        .field("ratio", 0.5)
        .field("ok", true);
  }
  log(LogLevel::kDebug, "test.suppressed").field("k", 1);  // below threshold

  set_log_sink(nullptr);
  set_log_level(prev);

  std::rewind(sink);
  char buf[4096];
  std::string contents;
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, sink)) > 0) {
    contents.append(buf, got);
  }
  std::fclose(sink);

  // Exactly one line: the suppressed event must leave no trace.
  ASSERT_FALSE(contents.empty());
  EXPECT_EQ(contents.find('\n'), contents.size() - 1);
  const json::Value doc = parse_ok(contents);
  EXPECT_EQ(doc.at("level").as_string(), "info");
  EXPECT_EQ(doc.at("event").as_string(), "test.event");
  EXPECT_EQ(doc.at("rank").as_i64(), 2);
  EXPECT_EQ(doc.at("phase").as_u64(), 7u);
  EXPECT_GE(doc.at("ts_ns").as_i64(), 0);
  // The wall-clock anchor: unix_ns is the same instant as ts_ns, so
  // multi-process logs merge on it. anchor + ts_ns == unix_ns exactly.
  EXPECT_EQ(doc.at("unix_ns").as_i64(),
            log_unix_anchor_ns() + doc.at("ts_ns").as_i64());
  EXPECT_EQ(doc.at("fields").at("action").as_string(), "delay");
  EXPECT_EQ(doc.at("fields").at("ms").as_u64(), 50u);
  EXPECT_TRUE(doc.at("fields").at("ok").boolean);
}

TEST(StructuredLog, LevelParsingRoundTrips) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("loud").has_value());
  EXPECT_STREQ(log_level_name(LogLevel::kError), "error");
}

// ---------------------------------------------------------------------------
// TelemetryServer: routing + real HTTP.
// ---------------------------------------------------------------------------

/// Blocking one-shot HTTP GET against 127.0.0.1:port; returns the full
/// response (status line, headers, body).
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_body(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : response.substr(at + 4);
}

TEST(TelemetryServer, RoutesAllEndpoints) {
  ScopedEnable on;
  TelemetryServer server(0, [] {
    Health h;
    h.workers = 4;
    h.jobs = 9;
    h.watchdog = true;
    return h;
  });
  EXPECT_GT(server.port(), 0);  // port 0 resolved to an ephemeral port

  const auto metrics = server.handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_TRUE(validate_prometheus(metrics.body).empty());

  const auto metrics_json = server.handle("/metrics.json");
  EXPECT_EQ(metrics_json.status, 200);
  EXPECT_EQ(parse_ok(metrics_json.body).at("schema").as_string(),
            "parda.metrics.v1");

  const auto spans = server.handle("/spans");
  EXPECT_EQ(spans.status, 200);
  parse_ok(spans.body).at("traceEvents");

  const auto health = server.handle("/healthz");
  EXPECT_EQ(health.status, 200);
  const json::Value doc = parse_ok(health.body);
  EXPECT_TRUE(doc.at("ok").boolean);
  EXPECT_EQ(doc.at("workers").as_i64(), 4);
  EXPECT_EQ(doc.at("jobs").as_u64(), 9u);
  EXPECT_TRUE(doc.at("watchdog").boolean);

  EXPECT_EQ(server.handle("/nope").status, 404);
  server.stop();
  server.stop();  // idempotent
}

TEST(TelemetryServer, AcceptPoolKeepsScrapesFlowingPastSlowRequests) {
  // Head-of-line blocking regression test: with a serial accept loop, a
  // request parked inside its handler would starve every later
  // connection. The accept pool must keep /metrics scrapes flowing while
  // /slow is still in service.
  ScopedEnable on;
  TelemetryServer server(0);
  ASSERT_GE(server.accept_threads(), 2);

  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> slow_entered{false};
  server.set_handler([&](const TelemetryServer::Request& request)
                         -> std::optional<TelemetryServer::Response> {
    if (request.path == "/slow") {
      slow_entered.store(true, std::memory_order_release);
      released.wait();
      return TelemetryServer::Response{200, "text/plain", "done\n"};
    }
    return std::nullopt;
  });

  std::thread slow_client(
      [&] { http_get(server.port(), "/slow"); });
  while (!slow_entered.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // /slow is parked in its handler on one pool thread. These scrapes must
  // be served by the others — if they queue behind /slow, the test hangs
  // (and the 2s client recv timeout turns that into a visible failure).
  for (int i = 0; i < 3; ++i) {
    const std::string metrics = http_get(server.port(), "/metrics");
    EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  }
  release.set_value();
  slow_client.join();
  server.stop();
}

TEST(TelemetryServer, ServesRealHttpGets) {
  ScopedEnable on;
  TelemetryServer server(0);
  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_TRUE(parse_ok(http_body(health)).at("ok").boolean);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_TRUE(validate_prometheus(http_body(metrics)).empty());

  const std::string missing = http_get(server.port(), "/missing");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
}

TEST(TelemetryServer, ScrapesConcurrentWithStreamingAnalysis) {
  ScopedEnable on;
  tracer().clear();

  core::RuntimeOptions runtime_options;
  runtime_options.serve_port = 0;  // ephemeral
  core::PardaRuntime runtime(runtime_options);
  ASSERT_GT(runtime.serve_port(), 0);

  ZipfWorkload w(500, 0.9, 21);
  const auto trace = generate_trace(w, 20000);
  PardaOptions options;
  options.num_procs = 4;
  options.chunk_words = 1024;  // several streaming phases

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    // Hammer every endpoint while the analyses run; each scrape must be a
    // complete, valid response even mid-phase.
    int scrapes = 0;
    while (!done.load(std::memory_order_relaxed) || scrapes < 3) {
      const std::string m = http_get(runtime.serve_port(), "/metrics");
      EXPECT_NE(m.find("HTTP/1.1 200"), std::string::npos);
      const std::string body = http_body(m);
      const std::vector<std::string> problems = validate_prometheus(body);
      std::string report;
      for (const std::string& p : problems) report += "\n  " + p;
      EXPECT_TRUE(problems.empty())
          << "the " << body.size() << "-byte /metrics scrape is invalid:"
          << report;
      parse_ok(http_body(http_get(runtime.serve_port(), "/metrics.json")));
      parse_ok(http_body(http_get(runtime.serve_port(), "/healthz")));
      ++scrapes;
    }
  });

  auto session = runtime.session(options);
  const Histogram reference = parda_analyze(trace, options).hist;
  PipeTraceSource source(trace.size() + 1,
                         [&](TracePipe& pipe) { pipe.write(trace); });
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(session.analyze(source).hist == reference);
  }
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  // The spans endpoint reflects the finished run.
  const std::string spans = http_body(http_get(runtime.serve_port(), "/spans"));
  EXPECT_NE(parse_ok(spans).at("traceEvents").array.size(), 0u);
}

// ---------------------------------------------------------------------------
// Distributed telemetry: parda.telemetry.v1 frames and the rank-0 hub.
// ---------------------------------------------------------------------------

TEST(TelemetryFrame, RoundTripsThroughTheHub) {
  ScopedEnable on;
  Registry reg;
  SpanTracer spans(64);
  reg.counter("dist.bytes").add_for_rank(0, 77);
  reg.gauge("dist.depth").set_for_rank(0, 5);
  reg.timer("dist.wait").record_ns(1000);
  spans.record(100, 200, "analyze", 3);

  ClockSync clock;
  clock.offset_ns = 5'000'000;
  clock.uncertainty_ns = 1200;
  clock.valid = true;
  clock.samples = 8;

  const std::string frame = make_telemetry_frame(2, 9, false, clock, reg, spans);
  const json::Value doc = parse_ok(frame);
  EXPECT_EQ(doc.at("schema").as_string(), "parda.telemetry.v1");
  EXPECT_EQ(doc.at("process").as_i64(), 2);
  EXPECT_EQ(doc.at("seq").as_u64(), 9u);
  EXPECT_FALSE(doc.at("final").boolean);
  EXPECT_EQ(doc.at("clock").at("offset_ns").as_i64(), 5'000'000);
  EXPECT_EQ(doc.at("metrics").at("schema").as_string(), "parda.metrics.v1");

  TelemetryHub local_hub;
  EXPECT_TRUE(local_hub.empty());
  const TelemetryHub::Ingest first = local_hub.ingest_frame(frame, 2);
  EXPECT_EQ(first.process, 2);
  EXPECT_FALSE(first.final_frame);
  EXPECT_FALSE(local_hub.empty());
  EXPECT_EQ(local_hub.frames_total(), 1u);

  const auto remotes = local_hub.snapshot();
  ASSERT_EQ(remotes.size(), 1u);
  const ProcessTelemetry& pt = remotes[0];
  EXPECT_EQ(pt.process, 2);
  EXPECT_EQ(pt.seq, 9u);
  EXPECT_FALSE(pt.final_received);
  EXPECT_TRUE(pt.clock.valid);
  ASSERT_EQ(pt.counters.size(), 1u);
  EXPECT_EQ(pt.counters[0].name, "dist.bytes");
  ASSERT_GE(pt.counters[0].shards.size(), 2u);
  EXPECT_EQ(pt.counters[0].shards[1], 77u);  // index r+1 = rank r
  ASSERT_EQ(pt.timers.size(), 1u);
  EXPECT_EQ(pt.timers[0].count, 1u);

  // Span timestamps were rebased onto rank 0's epoch at ingest.
  ASSERT_EQ(pt.spans.size(), 1u);
  EXPECT_EQ(pt.spans[0].t_start_ns, 100 + 5'000'000);
  EXPECT_EQ(pt.spans[0].t_end_ns, 200 + 5'000'000);
  EXPECT_STREQ(pt.spans[0].op, "analyze");
  EXPECT_EQ(pt.spans[0].phase, 3u);
  EXPECT_EQ(local_hub.max_uncertainty_ns(), 1200);

  // A later frame REPLACES the process's snapshot (frames are cumulative),
  // and the final flag is surfaced to the caller.
  spans.record(300, 400, "reduce", 3);
  const TelemetryHub::Ingest last = local_hub.ingest_frame(
      make_telemetry_frame(2, 10, true, clock, reg, spans), 2);
  EXPECT_EQ(last.process, 2);
  EXPECT_TRUE(last.final_frame);
  const auto updated = local_hub.snapshot();
  ASSERT_EQ(updated.size(), 1u);
  EXPECT_EQ(updated[0].seq, 10u);
  EXPECT_TRUE(updated[0].final_received);
  EXPECT_EQ(updated[0].frames, 2u);
  EXPECT_EQ(updated[0].spans.size(), 2u);

  // merged_events folds local + rebased-remote spans for the SpanReport.
  SpanTracer local(16);
  local.record(0, 50, "scatter", 0);
  const auto merged = local_hub.merged_events(local);
  EXPECT_EQ(merged.size(), 3u);
  parse_ok(local_hub.merged_chrome_json(local)).at("traceEvents");
  const json::Value mm = parse_ok(local_hub.merged_metrics_json(reg));
  ASSERT_EQ(mm.at("processes").array.size(), 1u);
  EXPECT_EQ(mm.at("processes").array[0].at("process").as_i64(), 2);

  local_hub.clear();
  EXPECT_TRUE(local_hub.empty());
}

/// A hand-written parda.telemetry.v1 frame from process 1 around the
/// counters/gauges/timers members of its metrics object, its clock offset
/// and the members of its spans array.
std::string raw_frame(const std::string& metrics,
                      const std::string& offset_ns = "0",
                      const std::string& spans = "") {
  return R"({"schema":"parda.telemetry.v1","process":1,"seq":1,)"
         R"("final":false,"clock":{"offset_ns":)" +
         offset_ns +
         R"(,"uncertainty_ns":0,"valid":false,"samples":0},)"
         R"("metrics":{"schema":"parda.metrics.v1",)" +
         metrics + R"(},"spans":[)" + spans + R"(],"spans_dropped":0})";
}

/// A frame with no metrics, clock offset `offset_ns` and one span t0..t1.
std::string span_frame(const std::string& offset_ns, const std::string& t0,
                       const std::string& t1) {
  return raw_frame(R"("counters":{},"gauges":{},"timers":{})", offset_ns,
                   R"({"t0":)" + t0 + R"(,"t1":)" + t1 +
                       R"(,"op":"analyze","rank":1})");
}

/// One span entry of `op` on rank 1, from 0 to t1 ns on the sender's clock.
std::string span_json(const std::string& op, const std::string& t1 = "1") {
  return R"({"t0":0,"t1":)" + t1 + R"(,"op":")" + op + R"(","rank":1})";
}

/// A frame with no metrics, no clock offset and the span entries `spans`.
std::string spans_frame(const std::string& spans) {
  return raw_frame(R"("counters":{},"gauges":{},"timers":{})", "0", spans);
}

TEST(TelemetryFrame, HubRejectsMalformedFrames) {
  TelemetryHub local_hub;
  EXPECT_ANY_THROW(local_hub.ingest_frame("{", 1));
  EXPECT_ANY_THROW(local_hub.ingest_frame("{\"schema\":\"nope\"}", 1));
  // A gauge whose last-value array is longer than its max array, and a
  // timer with more log2 buckets than a TimerHistogram has (its bound
  // 2^(b+1)-1 would shift past 64 bits).
  EXPECT_ANY_THROW(local_hub.ingest_frame(
      raw_frame(R"("counters":{},"timers":{},"gauges":{"g":{)"
                R"("unattributed":0,"per_rank":[1],)"
                R"("last_unattributed":0,"last":[1,2,3]}})"),
      1));
  std::string buckets = "0";
  for (int b = 1; b < 64; ++b) buckets += ",1";
  EXPECT_ANY_THROW(local_hub.ingest_frame(
      raw_frame(R"("counters":{},"gauges":{},"timers":{"t":{"count":63,)"
                R"("sum_ns":1,"log2_ns":[)" +
                buckets + "]}}"),
      1));
  // Rebased span times must stay in [-2^62, 2^62), where the differences
  // the span report takes fit in an int64: an offset that overflows the
  // rebase, a span whose length does not fit, and the first time past
  // the range.
  EXPECT_ANY_THROW(local_hub.ingest_frame(
      span_frame("9223372036854775807", "100", "200"), 1));
  EXPECT_ANY_THROW(local_hub.ingest_frame(
      span_frame("0", "-9223372036854775800", "9223372036854775800"), 1));
  EXPECT_ANY_THROW(local_hub.ingest_frame(
      span_frame("-1", "0", "4611686018427387905"), 1));
  // Interned ops are never freed: an op longer than kMaxSpanOpBytes, and a
  // frame naming more than kMaxSpanOps distinct ops.
  EXPECT_ANY_THROW(local_hub.ingest_frame(
      spans_frame(span_json(std::string(kMaxSpanOpBytes + 1, 'o'))), 1));
  std::string too_many = span_json("op0");
  for (std::size_t i = 1; i <= kMaxSpanOps; ++i) {
    too_many += "," + span_json("op" + std::to_string(i));
  }
  EXPECT_ANY_THROW(local_hub.ingest_frame(spans_frame(too_many), 1));
  EXPECT_TRUE(local_hub.empty());  // nothing was stored

  // The same shapes, well-formed, are accepted.
  local_hub.ingest_frame(
      raw_frame(R"("counters":{},"timers":{"t":{"count":1,"sum_ns":1,)"
                R"("log2_ns":[1]}},"gauges":{"g":{"unattributed":0,)"
                R"("per_rank":[1],"last_unattributed":0,"last":[1]}})"),
      1);
  EXPECT_FALSE(local_hub.empty());
  // A span across the whole range reports its full length.
  local_hub.ingest_frame(
      span_frame("-1", "-4611686018427387903", "4611686018427387904"), 1);
  const SpanReport report =
      SpanReport::from_events(local_hub.merged_events(SpanTracer(1)));
  EXPECT_EQ(report.wall_ns(), (std::uint64_t{1} << 63) - 1);
}

TEST(TelemetryFrame, HubInternsOnlyTheOpsOfAcceptedFrames) {
  TelemetryHub local_hub;
  // kMaxSpanOps + 1 frames, each naming a fresh op in its first span and
  // refused at its second, which ends past the span time range.
  for (std::size_t i = 0; i <= kMaxSpanOps; ++i) {
    EXPECT_ANY_THROW(local_hub.ingest_frame(
        spans_frame(span_json("refused" + std::to_string(i)) + "," +
                    span_json("analyze", "4611686018427387905")),
        1));
  }
  EXPECT_TRUE(local_hub.empty());
  // None of their ops was interned, so a frame naming kMaxSpanOps fresh
  // ops, the first kMaxSpanOpBytes long, is accepted.
  const std::string longest(kMaxSpanOpBytes, 'o');
  std::string full = span_json(longest);
  for (std::size_t i = 1; i < kMaxSpanOps; ++i) {
    full += "," + span_json("op" + std::to_string(i));
  }
  local_hub.ingest_frame(spans_frame(full), 1);
  const std::vector<ProcessTelemetry> stored = local_hub.snapshot();
  ASSERT_EQ(stored.size(), 1u);
  ASSERT_EQ(stored[0].spans.size(), kMaxSpanOps);
  EXPECT_EQ(stored[0].spans[0].op, longest);
  // The table is full: ops it holds are still accepted, a fresh one is not.
  local_hub.ingest_frame(spans_frame(span_json("op1")), 1);
  EXPECT_ANY_THROW(
      local_hub.ingest_frame(spans_frame(span_json("one-more")), 1));
  EXPECT_EQ(local_hub.snapshot()[0].spans.size(), 1u);
}

TEST(TelemetryFrame, HubSurvivesEveryMutationOfAFrame) {
  ScopedEnable on;
  Registry reg;
  SpanTracer spans(16);
  reg.counter("dist.bytes").add_for_rank(0, 77);
  reg.gauge("dist.depth").set_for_rank(0, 5);
  reg.timer("dist.wait").record_ns(1000);
  spans.record(100, 200, "analyze", 3);
  spans.record(120, 180, "recv-wait", 3);
  ClockSync clock;
  clock.offset_ns = 5'000'000;
  clock.uncertainty_ns = 1200;
  clock.valid = true;
  clock.samples = 8;
  const std::string frame = make_telemetry_frame(1, 1, true, clock, reg, spans);
  const SpanTracer local(16);

  // Every mutation is either refused, leaving the hub empty, or stored and
  // rendered by every renderer; anything else fails the test.
  std::size_t stored = 0;
  std::size_t refused = 0;
  for_each_mutation(
      std::vector<std::uint8_t>(frame.begin(), frame.end()),
      [&](const Mutation& m) {
        TelemetryHub hub;
        try {
          hub.ingest_frame(std::string(m.bytes.begin(), m.bytes.end()), 1);
        } catch (const std::runtime_error&) {  // json::JsonError is one
          EXPECT_TRUE(hub.empty()) << m.label;
          ++refused;
          return;
        }
        ++stored;
        EXPECT_FALSE(to_prometheus(reg, local, hub).empty()) << m.label;
        parse_ok(hub.merged_chrome_json(local));
        parse_ok(hub.merged_metrics_json(reg));
        const SpanReport report = SpanReport::from_events(
            hub.merged_events(local), hub.merged_dropped(local));
        EXPECT_FALSE(report.to_table().empty()) << m.label;
        parse_ok(report.to_json());
      });
  EXPECT_GT(stored, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(TelemetryFrame, HubRejectsFramesNotFromTheirProcess) {
  ScopedEnable on;
  Registry reg;
  SpanTracer spans(16);
  reg.counter("dist.bytes").add_for_rank(0, 1);
  TelemetryHub local_hub;
  // A frame claiming process 0 — the hub's own — would duplicate every
  // local series in /metrics; as a final it would also count as a peer's
  // end-of-job flush. It is refused whoever sends it.
  EXPECT_ANY_THROW(local_hub.ingest_frame(
      make_telemetry_frame(0, 1, true, ClockSync{}, reg, spans), 1));
  EXPECT_ANY_THROW(local_hub.ingest_frame(
      make_telemetry_frame(0, 1, true, ClockSync{}, reg, spans), 0));
  // A frame speaks only for its sender: rank 1 cannot report as process 2.
  EXPECT_ANY_THROW(local_hub.ingest_frame(
      make_telemetry_frame(2, 1, true, ClockSync{}, reg, spans), 1));
  EXPECT_TRUE(local_hub.empty());  // nothing was stored
  EXPECT_EQ(local_hub.frames_total(), 0u);

  const TelemetryHub::Ingest ok = local_hub.ingest_frame(
      make_telemetry_frame(1, 1, true, ClockSync{}, reg, spans), 1);
  EXPECT_EQ(ok.process, 1);
  EXPECT_TRUE(ok.final_frame);
  EXPECT_EQ(local_hub.snapshot().size(), 1u);
}

TEST(TelemetryFrame, FleetPrometheusSharesFamilyBlocksAcrossProcesses) {
  ScopedEnable on;
  // The same counter exists locally and remotely: the exposition must
  // render ONE family block (a duplicate HELP/TYPE is a validator error)
  // with process="0" and process="1" samples side by side.
  Registry local;
  SpanTracer local_spans(16);
  local.counter("fleet.chunks").add_for_rank(0, 10);

  Registry remote;
  SpanTracer remote_spans(16);
  remote.counter("fleet.chunks").add_for_rank(1, 33);
  TelemetryHub local_hub;
  local_hub.ingest_frame(
      make_telemetry_frame(1, 1, true, ClockSync{0, 900, true, 8}, remote,
                           remote_spans),
      1);

  const std::string text = to_prometheus(local, local_spans, local_hub);
  const std::vector<std::string> problems = validate_prometheus(text);
  EXPECT_TRUE(problems.empty()) << problems[0];
  EXPECT_NE(text.find("parda_fleet_chunks_total{process=\"0\",rank=\"0\"} 10"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("parda_fleet_chunks_total{process=\"1\",rank=\"1\"} 33"),
            std::string::npos)
      << text;
  // Per-process freshness and clock-trust gauges ride along.
  EXPECT_NE(text.find("parda_telemetry_frames_total{process=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("parda_telemetry_final{process=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("parda_telemetry_clock_uncertainty_ns{process=\"1\"} 900"),
      std::string::npos);
}

TEST(PrometheusValidator, LabelValueEscapesAndProcessRankCombos) {
  // Escaped backslash, newline, and quote in a label value are legal; so
  // is any process/rank label combination the fleet exposition emits.
  EXPECT_TRUE(validate_prometheus(
                  "# HELP a_total ok\n"
                  "# TYPE a_total counter\n"
                  "a_total{path=\"C:\\\\tmp\\n\\\"q\\\"\"} 1\n"
                  "a_total{process=\"0\",rank=\"driver\"} 2\n"
                  "a_total{process=\"1\",rank=\"0\"} 3\n")
                  .empty());
  // Unknown escape sequences are rejected...
  EXPECT_FALSE(validate_prometheus("# HELP a_total ok\n"
                                   "# TYPE a_total counter\n"
                                   "a_total{rank=\"\\q\"} 1\n")
                   .empty());
  // ...as are unterminated label values...
  EXPECT_FALSE(validate_prometheus("# HELP a_total ok\n"
                                   "# TYPE a_total counter\n"
                                   "a_total{rank=\"0} 1\n")
                   .empty());
  // ...and the duplicate HELP/TYPE a naive per-process renderer would
  // produce (the regression the shared family blocks exist to prevent).
  EXPECT_FALSE(validate_prometheus("# HELP a_total ok\n"
                                   "# TYPE a_total counter\n"
                                   "a_total{process=\"0\"} 1\n"
                                   "# HELP a_total ok\n"
                                   "# TYPE a_total counter\n"
                                   "a_total{process=\"1\"} 2\n")
                   .empty());

  // Series are distinct by name and full label set, `le` included...
  EXPECT_TRUE(validate_prometheus("# HELP a_total ok\n"
                                  "# TYPE a_total counter\n"
                                  "a_total 1\n"
                                  "a_total{process=\"0\",rank=\"0\"} 2\n"
                                  "a_total{process=\"1\",rank=\"0\"} 3\n"
                                  "# HELP h ok\n"
                                  "# TYPE h histogram\n"
                                  "h_bucket{le=\"1\"} 1\n"
                                  "h_bucket{le=\"+Inf\"} 1\n"
                                  "h_sum 1\n"
                                  "h_count 1\n")
                  .empty());
  // ...so a repeated series is rejected, as Prometheus does — whether it
  // repeats verbatim, with its labels reordered, or as a repeated bucket.
  EXPECT_FALSE(validate_prometheus("# HELP a_total ok\n"
                                   "# TYPE a_total counter\n"
                                   "a_total{process=\"0\",rank=\"0\"} 1\n"
                                   "a_total{process=\"0\",rank=\"0\"} 1\n")
                   .empty());
  EXPECT_FALSE(validate_prometheus("# HELP a_total ok\n"
                                   "# TYPE a_total counter\n"
                                   "a_total{process=\"0\",rank=\"0\"} 1\n"
                                   "a_total{rank=\"0\",process=\"0\"} 2\n")
                   .empty());
  EXPECT_FALSE(validate_prometheus("# HELP h ok\n"
                                   "# TYPE h histogram\n"
                                   "h_bucket{le=\"1\"} 1\n"
                                   "h_bucket{le=\"1\"} 1\n"
                                   "h_bucket{le=\"+Inf\"} 1\n"
                                   "h_sum 1\n"
                                   "h_count 1\n")
                   .empty());
  // A label value cannot forge a different label set's series key.
  EXPECT_TRUE(validate_prometheus("# HELP a_total ok\n"
                                  "# TYPE a_total counter\n"
                                  "a_total{a=\"x|b=y\"} 1\n"
                                  "a_total{a=\"x\",b=\"y\"} 2\n")
                  .empty());
}

TEST(FleetMetrics, CountersStayMonotoneAcrossWorldReset) {
  ScopedEnable on;
  // An injected fault poisons the shared World; the runtime recycles it
  // with World::reset() for the next job. The metrics registry is
  // process-global: the recycle must NOT zero counters (Prometheus
  // counters are monotone) and the exposition must stay valid throughout.
  ZipfWorkload w(300, 0.9, 41);
  const auto trace = generate_trace(w, 6000);
  const comm::FaultPlan plan = comm::FaultPlan::parse("rank=1,op=recv,n=0");

  core::PardaRuntime runtime;
  PardaOptions options;
  options.num_procs = 3;
  const Histogram reference = parda_analyze(trace, options).hist;

  auto session = runtime.session(options);
  session.options().run_options.fault_plan = &plan;
  EXPECT_THROW(session.analyze(trace), comm::FaultInjectedError);
  const std::uint64_t sends_after_abort =
      registry().counter_total("comm.sends");
  EXPECT_TRUE(validate_prometheus(to_prometheus()).empty());

  session.options().run_options.fault_plan = nullptr;
  EXPECT_TRUE(session.analyze(trace).hist == reference);
  EXPECT_GE(registry().counter_total("comm.sends"), sends_after_abort);
  EXPECT_TRUE(validate_prometheus(to_prometheus()).empty());
}

// ---------------------------------------------------------------------------
// Crash flight recorder.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, FirstDumpWinsAndIsStructured) {
  ScopedEnable on;
  flightrec_reset_for_test();
  tracer().clear();
  {
    ScopedThreadRank rank(1);
    tracer().record(10, 90, "analyze", 0);
  }

  // The abort-origin log line must land in the dump's structured tail.
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  const LogLevel prev = log_level();
  set_log_sink(sink);
  set_log_level(LogLevel::kWarn);
  log(LogLevel::kWarn, "comm.abort").field("origin", 1).field("cause", "test");
  set_log_sink(nullptr);
  set_log_level(prev);
  std::fclose(sink);

  const std::string path =
      std::string(::testing::TempDir()) + "/flightrec_%r.json";
  flightrec_configure(path, 3);
  flightrec_note("transport", "tcp(np=2)");
  flightrec_note("abort.origin", "1");

  EXPECT_FALSE(flightrec_dumped());
  EXPECT_TRUE(flightrec_dump("test: injected failure"));
  EXPECT_TRUE(flightrec_dumped());
  // First dump wins: a second trigger in the same process is a no-op, so
  // the file describes the original failure, not the teardown cascade.
  EXPECT_FALSE(flightrec_dump("test: cascade"));

  const std::string resolved =
      std::string(::testing::TempDir()) + "/flightrec_3.json";
  std::FILE* f = std::fopen(resolved.c_str(), "r");
  ASSERT_NE(f, nullptr) << "expected dump at " << resolved;
  std::string doc_text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) doc_text.append(buf, got);
  std::fclose(f);
  std::remove(resolved.c_str());

  const json::Value doc = parse_ok(doc_text);
  EXPECT_EQ(doc.at("schema").as_string(), "parda.flightrec.v1");
  EXPECT_EQ(doc.at("reason").as_string(), "test: injected failure");
  EXPECT_EQ(doc.at("process").as_i64(), 3);
  EXPECT_GT(doc.at("unix_ns").as_i64(), 0);
  EXPECT_EQ(doc.at("context").at("transport").as_string(), "tcp(np=2)");
  EXPECT_EQ(doc.at("context").at("abort.origin").as_string(), "1");

  bool abort_line = false;
  for (const json::Value& line : doc.at("log_tail").array) {
    if (line.at("event").as_string() == "comm.abort") abort_line = true;
  }
  EXPECT_TRUE(abort_line) << "log tail missed the abort-origin line";

  bool analyze_span = false;
  for (const json::Value& span : doc.at("spans").array) {
    if (span.at("op").as_string() == "analyze" &&
        span.at("rank").as_i64() == 1) {
      analyze_span = true;
    }
  }
  EXPECT_TRUE(analyze_span);
  EXPECT_EQ(doc.at("metrics").at("schema").as_string(), "parda.metrics.v1");

  flightrec_reset_for_test();
  tracer().clear();
}

// ---------------------------------------------------------------------------
// Acceptance: a fault-injected delay on one rank is named as the straggler.
// ---------------------------------------------------------------------------

TEST(SpanReportIntegration, InjectedDelayNamesTheDelayedRank) {
  ScopedEnable on;
  tracer().clear();

  // Delay rank 2's first recv by 80ms — long against a small-trace phase.
  const comm::FaultPlan plan =
      comm::FaultPlan::parse("rank=2,op=recv,n=0,action=delay,ms=80");

  ZipfWorkload w(500, 0.9, 33);
  const auto trace = generate_trace(w, 8000);
  PardaOptions options;
  options.num_procs = 4;
  options.chunk_words = 1024;
  options.run_options.fault_plan = &plan;
  // The fault-injection sweep (scripts/run_fault_injection.sh) reruns
  // attribution per wire: straggler naming is span math above the comm
  // layer and must not depend on the transport moving the bytes.
  if (const char* wire = std::getenv("PARDA_FAULT_TRANSPORT")) {
    if (*wire != '\0') {
      options.run_options.transport = comm::TransportSpec::parse(wire);
    }
  }

  core::PardaRuntime runtime;
  auto session = runtime.session(options);
  PipeTraceSource source(trace.size() + 1,
                         [&](TracePipe& pipe) { pipe.write(trace); });
  session.analyze(source);

  const SpanReport report =
      SpanReport::from_events(tracer().events(), tracer().dropped());
  ASSERT_FALSE(report.phases().empty());
  // The injected sleep happens on rank 2's own thread (before it blocks),
  // so it shows up as SELF time there and as WAIT time on its peers.
  EXPECT_EQ(report.straggler_rank(), 2)
      << "attribution table:\n"
      << report.to_table();
}

}  // namespace
}  // namespace parda::obs

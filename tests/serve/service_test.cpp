#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "../util/mutations.hpp"
#include "../util/number_tokens.hpp"
#include "apps/online_mrc.hpp"
#include "comm/fault.hpp"
#include "core/runtime.hpp"
#include "hist/histogram.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "workload/generators.hpp"

namespace parda::serve {
namespace {

using std::chrono::steady_clock;

std::vector<Addr> zipf_trace(std::uint64_t refs, std::uint64_t footprint,
                             std::uint64_t seed) {
  ZipfWorkload w(footprint, 0.9, seed);
  return generate_trace(w, refs);
}

TenantConfig small_tenant() {
  TenantConfig config;
  config.bound = 1 << 12;
  config.window = 1024;
  config.num_procs = 2;
  return config;
}

TEST(MrcServiceTest, RegisterValidation) {
  core::PardaRuntime runtime;
  MrcService::Config cfg;
  cfg.max_tenants = 2;
  MrcService service(runtime, cfg);

  EXPECT_EQ(service.register_tenant("alice"), Admission::kOk);
  EXPECT_EQ(service.register_tenant("alice"), Admission::kAlreadyExists);
  EXPECT_EQ(service.register_tenant("bad name!"), Admission::kMalformed);
  EXPECT_EQ(service.register_tenant(""), Admission::kMalformed);
  EXPECT_EQ(service.register_tenant(std::string(65, 'a')),
            Admission::kMalformed);
  EXPECT_EQ(service.register_tenant("bob"), Admission::kOk);
  EXPECT_EQ(service.register_tenant("carol"), Admission::kTenantLimit);
  EXPECT_EQ(service.tenant_count(), 2u);
}

TEST(MrcServiceTest, IngestMatchesSoloMonitor) {
  core::PardaRuntime runtime;
  MrcService service(runtime);
  const TenantConfig cfg = small_tenant();
  ASSERT_EQ(service.register_tenant("alice", cfg), Admission::kOk);

  const auto trace = zipf_trace(10000, 400, 1);
  EXPECT_EQ(service.ingest("alice", trace), Admission::kOk);

  WindowedMrcMonitor solo(runtime, cfg.bound, cfg.window, cfg.decay,
                          cfg.num_procs);
  solo.feed(trace);
  const auto hist = service.histogram("alice");
  ASSERT_TRUE(hist.has_value());
  EXPECT_TRUE(*hist == solo.snapshot());

  const auto status = service.status("alice");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->references, trace.size());
  EXPECT_EQ(status->windows, trace.size() / cfg.window);
  EXPECT_EQ(status->mode, TenantMode::kExact);
}

TEST(MrcServiceTest, UnknownTenantAndBatchQuotas) {
  core::PardaRuntime runtime;
  MrcService service(runtime);
  TenantConfig cfg = small_tenant();
  cfg.quotas.max_batch_refs = 100;
  cfg.quotas.max_queued_bytes = 4096;  // 512 queued refs
  ASSERT_EQ(service.register_tenant("alice", cfg), Admission::kOk);

  const std::vector<Addr> small(50, 1);
  const std::vector<Addr> big(101, 1);
  EXPECT_EQ(service.ingest("nobody", small), Admission::kUnknownTenant);
  EXPECT_EQ(service.ingest("alice", big), Admission::kBatchTooLarge);
  // 50-ref batches accumulate in the pending window (window = 1024 never
  // rolls); the 11th would exceed 512 queued refs.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(service.ingest("alice", small), Admission::kOk) << i;
  }
  EXPECT_EQ(service.ingest("alice", small), Admission::kQueueFull);
}

TEST(MrcServiceTest, TokenBucketRateLimit) {
  core::PardaRuntime runtime;
  MrcService service(runtime);
  TenantConfig cfg = small_tenant();
  cfg.quotas.max_refs_per_sec = 1000;
  ASSERT_EQ(service.register_tenant("alice", cfg), Admission::kOk);

  const std::vector<Addr> batch(800, 7);
  const auto t0 = steady_clock::now();
  // Burst capacity is one second's worth (1000 tokens): the first batch
  // leaves 200 tokens, so a second batch at the same instant is bounced.
  EXPECT_EQ(service.ingest("alice", batch, t0), Admission::kOk);
  EXPECT_EQ(service.ingest("alice", batch, t0), Admission::kRateLimited);
  // Half a second refills 500 tokens: 700 < 800, still bounced.
  EXPECT_EQ(service.ingest("alice", batch,
                           t0 + std::chrono::milliseconds(500)),
            Admission::kRateLimited);
  EXPECT_EQ(service.ingest("alice", batch,
                           t0 + std::chrono::milliseconds(1200)),
            Admission::kOk);
}

TEST(MrcServiceTest, MemoryQuotaDegradesInPlace) {
  core::PardaRuntime runtime;
  MrcService service(runtime);
  TenantConfig cfg = small_tenant();
  // Windowed analysis bounds exact state by O(window); an 8K-ref window's
  // buffer alone is 64 KiB, so this quota forces degradation quickly.
  cfg.window = 8192;
  cfg.quotas.memory_quota_bytes = 64 * 1024;
  cfg.quotas.sampler_tracked = 256;
  ASSERT_EQ(service.register_tenant("hog", cfg), Admission::kOk);

  // A huge-footprint stream: the exact pipeline's aggregate histogram and
  // window buffer blow past 64 KiB, forcing degradation.
  const auto trace = zipf_trace(60000, 50000, 2);
  Admission last = Admission::kOk;
  for (std::size_t off = 0; off < trace.size(); off += 4096) {
    const auto n = std::min<std::size_t>(4096, trace.size() - off);
    last = service.ingest("hog", std::span(trace).subspan(off, n));
    ASSERT_TRUE(admitted(last));
  }
  EXPECT_EQ(last, Admission::kDegraded);
  const auto status = service.status("hog");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->mode, TenantMode::kDegraded);
  EXPECT_LE(status->footprint_bytes, cfg.quotas.memory_quota_bytes * 2);
  // Still serving histograms after degradation.
  EXPECT_TRUE(service.histogram("hog").has_value());

  // Once degraded, footprint stops growing: feed the same stream again
  // and the resident state must stay put (constant-memory contract).
  const auto fp_before = service.status("hog")->footprint_bytes;
  for (std::size_t off = 0; off < trace.size(); off += 4096) {
    const auto n = std::min<std::size_t>(4096, trace.size() - off);
    ASSERT_TRUE(admitted(
        service.ingest("hog", std::span(trace).subspan(off, n))));
  }
  const auto fp_after = service.status("hog")->footprint_bytes;
  EXPECT_LE(fp_after, fp_before + (fp_before / 4));
}

TEST(MrcServiceTest, FaultingTenantIsQuarantinedAndIsolated) {
  core::PardaRuntime runtime;
  MrcService service(runtime);
  // With num_procs=2, rank 1 (the last rank) only ever sends — infinities
  // left, then the closing reduction — so op=send is the op that always
  // happens.
  const comm::FaultPlan plan = comm::FaultPlan::parse("rank=1,op=send,n=0");
  TenantConfig faulty = small_tenant();
  faulty.fault_plan = &plan;
  faulty.quotas.max_aborts = 1;
  const TenantConfig clean = small_tenant();
  ASSERT_EQ(service.register_tenant("faulty", faulty), Admission::kOk);
  ASSERT_EQ(service.register_tenant("clean", clean), Admission::kOk);

  const auto trace = zipf_trace(4096, 300, 3);
  // The first completed window aborts -> immediate quarantine.
  EXPECT_EQ(service.ingest("faulty", trace), Admission::kQuarantined);
  EXPECT_EQ(service.status("faulty")->mode, TenantMode::kQuarantined);
  EXPECT_GE(service.status("faulty")->aborts, 1u);
  EXPECT_EQ(service.ingest("faulty", trace), Admission::kQuarantined);

  // The clean tenant, sharing the same pool, is bit-identical to solo.
  EXPECT_EQ(service.ingest("clean", trace), Admission::kOk);
  WindowedMrcMonitor solo(runtime, clean.bound, clean.window, clean.decay,
                          clean.num_procs);
  solo.feed(trace);
  EXPECT_TRUE(*service.histogram("clean") == solo.snapshot());
}

TEST(MrcServiceTest, AbortQuotaToleratesFaultsBelowThreshold) {
  core::PardaRuntime runtime;
  MrcService service(runtime);
  const comm::FaultPlan plan = comm::FaultPlan::parse("rank=1,op=send,n=0");
  TenantConfig cfg = small_tenant();
  cfg.fault_plan = &plan;
  cfg.quotas.max_aborts = 1000;  // effectively never quarantine
  ASSERT_EQ(service.register_tenant("flaky", cfg), Admission::kOk);

  const auto trace = zipf_trace(1024, 100, 4);
  for (int i = 0; i < 5; ++i) {
    // Every window job aborts, but the tenant stays registered and the
    // service keeps answering (repeated World recycling underneath).
    EXPECT_EQ(service.ingest("flaky", trace), Admission::kOk) << i;
  }
  const auto status = service.status("flaky");
  EXPECT_EQ(status->mode, TenantMode::kExact);
  EXPECT_EQ(status->aborts, 5u);
  EXPECT_EQ(status->windows, 0u);
}

TEST(MrcServiceTest, DegradeAllShedPolicy) {
  core::PardaRuntime runtime;
  MrcService::Config cfg;
  cfg.shed = ShedPolicy::kDegradeAll;
  cfg.global_memory_quota_bytes = 20 * 1024;
  cfg.tenant_defaults = small_tenant();
  MrcService service(runtime, cfg);
  ASSERT_EQ(service.register_tenant("a"), Admission::kOk);
  ASSERT_EQ(service.register_tenant("b"), Admission::kOk);

  const auto trace = zipf_trace(40000, 30000, 5);
  Admission last = Admission::kOk;
  for (std::size_t off = 0; off < trace.size() && last != Admission::kDegraded;
       off += 2048) {
    const auto n = std::min<std::size_t>(2048, trace.size() - off);
    last = service.ingest("a", std::span(trace).subspan(off, n));
    ASSERT_TRUE(admitted(last));
  }
  // Pushing tenant a over the global quota degraded EVERYONE in place.
  EXPECT_EQ(last, Admission::kDegraded);
  EXPECT_EQ(service.status("a")->mode, TenantMode::kDegraded);
  EXPECT_EQ(service.status("b")->mode, TenantMode::kDegraded);
}

TEST(MrcServiceTest, RejectNewestShedPolicy) {
  core::PardaRuntime runtime;
  MrcService::Config cfg;
  cfg.shed = ShedPolicy::kRejectNewest;
  cfg.global_memory_quota_bytes = 12 * 1024;
  cfg.tenant_defaults = small_tenant();
  MrcService service(runtime, cfg);
  ASSERT_EQ(service.register_tenant("a"), Admission::kOk);

  const auto trace = zipf_trace(30000, 20000, 6);
  Admission last = Admission::kOk;
  for (std::size_t off = 0; off < trace.size() && last != Admission::kShedding;
       off += 2048) {
    const auto n = std::min<std::size_t>(2048, trace.size() - off);
    last = service.ingest("a", std::span(trace).subspan(off, n));
  }
  EXPECT_EQ(last, Admission::kShedding);
  // Shedding does not mutate the tenant: it stays exact.
  EXPECT_EQ(service.status("a")->mode, TenantMode::kExact);
}

TEST(MrcServiceTest, DrainFlushesAndStopsAdmission) {
  core::PardaRuntime runtime;
  MrcService service(runtime);
  const TenantConfig cfg = small_tenant();
  ASSERT_EQ(service.register_tenant("alice", cfg), Admission::kOk);
  ASSERT_EQ(service.register_tenant("bob", cfg), Admission::kOk);

  const auto trace = zipf_trace(3000, 200, 7);  // partial window left over
  ASSERT_EQ(service.ingest("alice", trace), Admission::kOk);
  ASSERT_EQ(service.ingest("bob", trace), Admission::kOk);

  WindowedMrcMonitor solo(runtime, cfg.bound, cfg.window, cfg.decay,
                          cfg.num_procs);
  solo.feed(trace);
  const Histogram expected = solo.snapshot();

  const auto flushed = service.drain();
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_TRUE(flushed.at("alice") == expected);
  EXPECT_TRUE(flushed.at("bob") == expected);
  // Every reference fed, including the partial in-flight window, made it
  // into the flushed histogram.
  EXPECT_EQ(flushed.at("alice").total(), trace.size());

  EXPECT_TRUE(service.draining());
  EXPECT_EQ(service.ingest("alice", trace), Admission::kDraining);
  EXPECT_EQ(service.register_tenant("carol"), Admission::kDraining);
  // Drain is idempotent.
  EXPECT_TRUE(service.drain().at("alice") == expected);
}

// --- HTTP route dispatch (no sockets: drive route() directly) ---------------

using Request = obs::TelemetryServer::Request;

Request post(std::string path, std::string body = "",
             std::string content_type = "text/plain") {
  return Request{"POST", std::move(path), std::move(content_type),
                 std::move(body)};
}

Request get(std::string path) { return Request{"GET", std::move(path), "", ""}; }

TEST(MrcServiceRouteTest, RegisterIngestStatusHistogram) {
  core::PardaRuntime runtime;
  MrcService service(runtime);

  auto r = service.route(post("/tenants/alice",
                              "{\"bound\": 4096, \"window\": 512}"));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);

  r = service.route(post("/ingest/alice", "1\n2\n0x10\n1\n"));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  EXPECT_NE(r->body.find("\"accepted\":4"), std::string::npos);

  r = service.route(get("/tenants"));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  EXPECT_NE(r->body.find("parda.tenants.v1"), std::string::npos);
  EXPECT_NE(r->body.find("\"alice\""), std::string::npos);

  r = service.route(get("/tenants/alice"));
  ASSERT_TRUE(r.has_value());
  EXPECT_NE(r->body.find("\"references\":4"), std::string::npos);

  r = service.route(get("/tenants/alice/histogram"));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  const Histogram h = Histogram::from_json(r->body);
  EXPECT_EQ(h.total(), 4u);

  // Unrelated paths fall through to the telemetry built-ins.
  EXPECT_FALSE(service.route(get("/metrics")).has_value());
  EXPECT_FALSE(service.route(get("/healthz")).has_value());
}

TEST(MrcServiceRouteTest, ErrorStatuses) {
  core::PardaRuntime runtime;
  MrcService::Config cfg;
  cfg.max_tenants = 1;
  MrcService service(runtime, cfg);

  EXPECT_EQ(service.route(get("/tenants/ghost"))->status, 404);
  EXPECT_EQ(service.route(post("/ingest/ghost", "1\n"))->status, 404);
  EXPECT_EQ(service.route(post("/tenants/bad name"))->status, 400);
  EXPECT_EQ(service.route(post("/tenants/a", "{not json"))->status, 400);
  ASSERT_EQ(service.route(post("/tenants/a"))->status, 200);
  EXPECT_EQ(service.route(post("/tenants/a"))->status, 409);
  EXPECT_EQ(service.route(post("/tenants/b"))->status, 503);
}

TEST(MrcServiceRouteTest, MalformedFrameQuarantines) {
  core::PardaRuntime runtime;
  MrcService service(runtime);
  ASSERT_EQ(service.route(post("/tenants/alice"))->status, 200);

  EXPECT_EQ(service.route(post("/ingest/alice", "1\nnot-a-number\n"))->status,
            400);
  EXPECT_EQ(service.status("alice")->mode, TenantMode::kQuarantined);
  EXPECT_EQ(service.route(post("/ingest/alice", "1\n"))->status, 409);

  // Binary codec: a non-multiple-of-8 body is malformed too.
  ASSERT_EQ(service.route(post("/tenants/bob"))->status, 200);
  EXPECT_EQ(service.route(post("/ingest/bob", "12345",
                               "application/octet-stream"))
                ->status,
            400);
  EXPECT_EQ(service.status("bob")->mode, TenantMode::kQuarantined);
}

TEST(MrcServiceRouteTest, BinaryFrameCodec) {
  core::PardaRuntime runtime;
  MrcService service(runtime);
  ASSERT_EQ(service.route(post("/tenants/alice"))->status, 200);

  std::string body;
  for (std::uint64_t v : {1ull, 2ull, 1ull}) {
    char bytes[8];
    std::memcpy(bytes, &v, 8);
    body.append(bytes, 8);
  }
  const auto r = service.route(
      post("/ingest/alice", body, "application/octet-stream"));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  EXPECT_EQ(service.status("alice")->references, 3u);
}

TEST(ParseFrameTest, TextAndBinary) {
  std::vector<Addr> out;
  EXPECT_TRUE(parse_frame("text/plain", "1\n2\n\n 0xff \r\n", out));
  EXPECT_EQ(out, (std::vector<Addr>{1, 2, 255}));
  EXPECT_TRUE(parse_frame("text/plain; charset=utf-8", "7", out));
  EXPECT_EQ(out, (std::vector<Addr>{7}));
  EXPECT_TRUE(parse_frame("", "", out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(parse_frame("text/plain", "1\nx\n", out));
  EXPECT_FALSE(parse_frame("text/plain", "0x\n", out));
  EXPECT_FALSE(parse_frame("text/plain", "-3\n", out));

  const char bytes[16] = {1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_TRUE(parse_frame("application/octet-stream",
                          std::string_view(bytes, 16), out));
  EXPECT_EQ(out, (std::vector<Addr>{1, 2}));
  EXPECT_FALSE(parse_frame("application/octet-stream",
                           std::string_view(bytes, 15), out));
}

TEST(ParseFrameTest, TextFramesReadLikeTxtTraces) {
  std::vector<Addr> out;
  // '#' comment lines, as in a .txt trace.
  EXPECT_TRUE(parse_frame("text/plain", "# window 1\n1\n  # note\n2\n", out));
  EXPECT_EQ(out, (std::vector<Addr>{1, 2}));
  for (const auto& [token, value] : test::valid_integer_tokens()) {
    EXPECT_TRUE(parse_frame("text/plain", token + "\n", out)) << token;
    EXPECT_EQ(out, (std::vector<Addr>{value})) << token;
  }
  EXPECT_TRUE(parse_frame("text/plain", "010\n", out));
  EXPECT_EQ(out, (std::vector<Addr>{10}));
  for (const std::string& token : test::hostile_integer_tokens()) {
    // Lines are trimmed and blank lines skipped, so padded tokens read as 1.
    EXPECT_EQ(parse_frame("text/plain", "5\n" + token + "\n", out),
              test::whitespace_or_empty(token))
        << "'" << token << "'";
  }
}

TEST(MrcServiceRouteTest, TenantConfigNumbersAreStrict) {
  core::PardaRuntime runtime;
  MrcService service(runtime);
  const auto rejected = [&](const std::string& body) {
    const auto r = service.route(post("/tenants/t", body));
    return r.has_value() && r->status == 400 && !service.status("t");
  };
  for (const std::string& token : test::hostile_integer_tokens()) {
    if (test::whitespace_or_empty(token)) continue;  // JSON whitespace
    for (const char* key : {"bound", "window", "num_procs"}) {
      const std::string body =
          std::string("{\"") + key + "\": " + token + "}";
      EXPECT_TRUE(rejected(body)) << body;
    }
    const std::string quota =
        "{\"quotas\": {\"max_batch_refs\": " + token + "}}";
    EXPECT_TRUE(rejected(quota)) << quota;
  }
  // Misreads before the parser: -1 wrapped to 2^64 - 1 (a 500 from
  // reserve), the rest truncated to 1, 2 and 1.
  for (const char* body :
       {"{\"window\": -1}", "{\"num_procs\": 4294967297}",
        "{\"bound\": 2.5}", "{\"window\": 1e9}", "{\"decay\": 1e400}"}) {
    EXPECT_TRUE(rejected(body)) << body;
  }
  ASSERT_EQ(service.route(post("/tenants/t", "{\"window\": 16, "
                                             "\"num_procs\": 007}"))
                ->status,
            200);
  EXPECT_EQ(service.status("t")->name, "t");
  EXPECT_EQ(service.tenant_count(), 1u);
}

TEST(MrcServiceRouteTest, TenantConfigSurvivesEveryMutation) {
  // A registration body that sets every client-settable field.
  const std::string body =
      R"({"bound": 4096, "window": 1024, "decay": 0.5, "num_procs": 2, )"
      R"("quotas": {"max_refs_per_sec": 100000, "max_batch_refs": 4096, )"
      R"("max_queued_bytes": 65536, "memory_quota_bytes": 1048576, )"
      R"("sampler_tracked": 256, "max_aborts": 3}})";
  core::PardaRuntime runtime;
  std::size_t registered = 0;
  for_each_mutation(
      std::vector<std::uint8_t>(body.begin(), body.end()),
      [&](const Mutation& m) {
        MrcService service(runtime);
        std::optional<obs::TelemetryServer::Response> r;
        try {
          r = service.route(
              post("/tenants/t", std::string(m.bytes.begin(), m.bytes.end())));
        } catch (const std::exception& e) {
          ADD_FAILURE() << m.label << ": threw " << e.what();
          return;
        }
        ASSERT_TRUE(r.has_value()) << m.label;
        if (r->status == 400) return;
        ASSERT_EQ(r->status, 200) << m.label << ": " << r->body;
        ++registered;
        const auto status = service.route(get("/tenants/t"));
        ASSERT_TRUE(status.has_value()) << m.label;
        EXPECT_EQ(status->status, 200) << m.label;
        EXPECT_NO_THROW(json::parse(status->body))
            << m.label << ": " << status->body;
      });
  EXPECT_GT(registered, 0u);
}

TEST(MrcServiceRouteTest, OversizedWindowIsMalformed) {
  // The monitor reserves its window up front: 2^40 references threw
  // bad_alloc and 2^64 - 1 threw from reserve, both a 500.
  core::PardaRuntime runtime;
  MrcService service(runtime);
  for (const std::uint64_t window :
       {kMaxTenantWindow + 1, std::uint64_t{1} << 40,
        std::uint64_t{18446744073709551615u}}) {
    const std::string body = "{\"window\": " + std::to_string(window) + "}";
    const auto r = service.route(post("/tenants/t", body));
    ASSERT_TRUE(r.has_value()) << body;
    EXPECT_EQ(r->status, 400) << body;
    EXPECT_NE(r->body.find("malformed"), std::string::npos) << body;
    EXPECT_FALSE(service.status("t")) << body;
  }
  EXPECT_EQ(service.tenant_count(), 0u);
  const std::string at_limit =
      "{\"window\": " + std::to_string(kMaxTenantWindow) + "}";
  EXPECT_EQ(service.route(post("/tenants/t", at_limit))->status, 200);
  EXPECT_EQ(service.tenant_count(), 1u);

  // Defaults apply to every body-less registration, so the service
  // refuses oversized ones up front.
  MrcService::Config config;
  config.tenant_defaults.window = kMaxTenantWindow + 1;
  EXPECT_THROW(MrcService rejected(runtime, config), CheckError);
}

}  // namespace
}  // namespace parda::serve

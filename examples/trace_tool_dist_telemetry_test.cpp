// Distributed telemetry-plane acceptance tests against the real trace_tool
// binary (path injected by CMake), driving a genuine 2-process tcp run:
//
//   - rank 0's --serve endpoint must expose the WHOLE fleet's /metrics
//     mid-run — both processes' series under process="..." labels, in a
//     valid Prometheus exposition — fed by the reserved-tag telemetry
//     channel while the analysis is still executing;
//   - the merged span report must name a FaultPlan-delayed REMOTE rank as
//     the straggler, which only works if the clock handshake rebased the
//     remote spans onto rank 0's epoch;
//   - an injected abort must leave a parda.flightrec.v1 postmortem from
//     the aborting process, carrying its last spans and the abort-origin
//     log line, via the $PARDA_FLIGHT_RECORDER env fallback.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "util/json.hpp"

namespace {

using parda::json::Value;

std::string tool() { return PARDA_TRACE_TOOL_PATH; }

/// Deterministic per-run port block: four consecutive ports derived from
/// the pid so parallel ctest invocations don't collide. The block
/// (20000-23991) sits below Linux's default ephemeral range (32768-60999),
/// where no concurrent outgoing connection can be handed one of them.
int base_port() {
  static const int base = 20000 + static_cast<int>(::getpid() % 997) * 4;
  return base;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

/// Blocking one-shot HTTP GET against 127.0.0.1:port; returns the body
/// ("" on any failure).
std::string http_get_body(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
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
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : response.substr(at + 4);
}

class DistTelemetryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::string cmd = tool() +
                            " gen --workload=zipf:m=500,a=0.9 --refs=60000 "
                            "--out=dist_tel.trc >/dev/null 2>&1";
    ASSERT_EQ(WEXITSTATUS(std::system(cmd.c_str())), 0);
  }

  static std::string peers(int p0, int p1) {
    return "127.0.0.1:" + std::to_string(p0) + ",127.0.0.1:" +
           std::to_string(p1);
  }
};

TEST_F(DistTelemetryTest, FleetScrapeMidRunAndRemoteStragglerNamed) {
  // --stream so the chunks travel over the wire: in offline mode every
  // process slices its local copy of the trace and rank 1 never recvs,
  // which would leave the injected recv-delay unmatched.
  const std::string common =
      " analyze dist_tel.trc --stream --chunk=4096 --procs=2 "
      "--transport=tcp --peers=" +
      peers(base_port(), base_port() + 1) +
      " --fault-plan=rank=1,op=recv,n=0,action=delay,ms=1000";
  const std::string env = "PARDA_TELEMETRY_INTERVAL_MS=25 ";

  // Rank 1 in the background. --metrics-out turns its telemetry on (the
  // periodic forwarder only runs on obs-enabled processes). Its output
  // goes to a file, not the pipe: nothing drains the pipe until the run
  // ends, so a chatty rank (e.g. sanitizer reports) filling it would
  // deadlock against rank 0, which the port-wait loop below is reading.
  const std::string cmd1 = env + tool() + common +
                           " --rank=1 --metrics-out=dist_tel_r1.json"
                           " > dist_tel_r1.log 2>&1";
  std::FILE* r1 = ::popen(cmd1.c_str(), "r");
  ASSERT_NE(r1, nullptr);

  // Rank 0 in the foreground: fleet server + merged report.
  std::remove("dist_tel_report.json");
  const std::string cmd0 =
      env + tool() + common +
      " --rank=0 --serve=0 --report --report-json=dist_tel_report.json 2>&1";
  std::FILE* r0 = ::popen(cmd0.c_str(), "r");
  ASSERT_NE(r0, nullptr);

  // First contract line on stdout names the resolved ephemeral port.
  int port = 0;
  char line[512];
  while (std::fgets(line, sizeof line, r0) != nullptr) {
    if (std::sscanf(line, "PARDA_SERVE_PORT=%d", &port) == 1) break;
  }
  EXPECT_GT(port, 0) << "rank 0 never announced its serve port";

  // Mid-run fleet scrape: poll until rank 1's series appear (its first
  // frame lands within ~one 25ms interval; the injected 1s delay keeps
  // the run alive far longer than that). Every scrape must be a valid
  // exposition even while frames are still streaming in.
  bool fleet_seen = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (port > 0 && std::chrono::steady_clock::now() < deadline) {
    const std::string body = http_get_body(port, "/metrics");
    if (body.find("process=\"1\"") != std::string::npos) {
      fleet_seen = true;
      EXPECT_NE(body.find("process=\"0\""), std::string::npos)
          << "fleet exposition lost the local process's series";
      const std::vector<std::string> problems =
          parda::obs::validate_prometheus(body);
      EXPECT_TRUE(problems.empty())
          << "mid-run fleet scrape invalid: " << problems[0];
      EXPECT_NE(body.find("parda_telemetry_clock_valid{process=\"1\"} 1"),
                std::string::npos)
          << "clock handshake did not converge";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fleet_seen) << "rank 1's series never reached rank 0's /metrics";

  while (std::fgets(line, sizeof line, r0) != nullptr) {
  }
  EXPECT_EQ(WEXITSTATUS(::pclose(r0)), 0);
  while (std::fgets(line, sizeof line, r1) != nullptr) {
  }
  EXPECT_EQ(WEXITSTATUS(::pclose(r1)), 0);

  // The merged report runs on clock-rebased remote spans: the delayed
  // REMOTE rank must be named the straggler, with the handshake's error
  // bar surfaced.
  const std::string report_text = read_file("dist_tel_report.json");
  ASSERT_FALSE(report_text.empty()) << "rank 0 wrote no span report";
  const Value report = parda::json::parse(report_text);
  EXPECT_EQ(report.at("schema").as_string(), "parda.spanreport.v1");
  EXPECT_EQ(report.at("straggler_rank").as_i64(), 1)
      << "merged cross-process attribution missed the delayed rank";
  EXPECT_GE(report.at("clock_uncertainty_ns").as_i64(), 0);
}

TEST_F(DistTelemetryTest, InjectedAbortLeavesFlightRecorderPostmortem) {
  std::remove("dist_fr_0.json");
  std::remove("dist_fr_1.json");
  const std::string common =
      " analyze dist_tel.trc --procs=2 --transport=tcp --peers=" +
      peers(base_port() + 2, base_port() + 3) +
      " --fault-plan=rank=1,op=send,n=0";  // default action: throw -> abort
  const std::string env = "PARDA_FLIGHT_RECORDER=dist_fr_%r.json ";

  const std::string cmd1 = env + tool() + common +
                           " --rank=1 --metrics-out=dist_tel_r1b.json"
                           " > dist_tel_r1b.log 2>&1";
  std::FILE* r1 = ::popen(cmd1.c_str(), "r");
  ASSERT_NE(r1, nullptr);
  const std::string cmd0 = env + tool() + common + " --rank=0 2>&1";
  std::FILE* r0 = ::popen(cmd0.c_str(), "r");
  ASSERT_NE(r0, nullptr);

  char line[512];
  while (std::fgets(line, sizeof line, r0) != nullptr) {
  }
  EXPECT_NE(WEXITSTATUS(::pclose(r0)), 0) << "rank 0 missed the abort";
  while (std::fgets(line, sizeof line, r1) != nullptr) {
  }
  EXPECT_NE(WEXITSTATUS(::pclose(r1)), 0) << "rank 1 missed its own fault";

  // The aborting process (local rank 1) left a structured postmortem via
  // the env fallback, %r resolved to its rank.
  const std::string dump_text = read_file("dist_fr_1.json");
  ASSERT_FALSE(dump_text.empty()) << "no flight-recorder dump from rank 1";
  const Value dump = parda::json::parse(dump_text);
  EXPECT_EQ(dump.at("schema").as_string(), "parda.flightrec.v1");
  EXPECT_EQ(dump.at("process").as_i64(), 1);
  EXPECT_NE(dump.at("reason").as_string().find("abort"), std::string::npos);
  EXPECT_EQ(dump.at("context").at("abort.origin").as_string(), "1");

  // Its last spans made it into the dump (obs was on via --metrics-out,
  // and the first send fires only after scatter+analyze ran)...
  EXPECT_FALSE(dump.at("spans").array.empty());

  // ...and the structured-log tail pins down the abort origin.
  bool abort_line = false;
  for (const Value& entry : dump.at("log_tail").array) {
    if (entry.at("event").as_string() == "comm.abort") abort_line = true;
  }
  EXPECT_TRUE(abort_line) << "log tail lost the comm.abort line";
}

}  // namespace

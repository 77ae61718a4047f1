// CLI contract tests for trace_tool, run against the real binary (path
// injected by CMake): strict flag handling must distinguish usage errors
// (exit 2) from runtime failures (exit 1) and success (exit 0).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "../tests/trace/trz_v1_writer.hpp"
#include "trace/trace_io.hpp"

namespace {

int run(const std::string& args) {
  const std::string cmd =
      std::string(PARDA_TRACE_TOOL_PATH) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

/// Like run() but with an environment assignment prefixed, for the
/// CLI > env > default precedence tests.
int run_env(const std::string& env, const std::string& args) {
  const std::string cmd = env + " " + std::string(PARDA_TRACE_TOOL_PATH) +
                          " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

/// Runs trace_tool and returns its stdout and stderr.
std::string output_of(const std::string& args) {
  const std::string cmd =
      std::string(PARDA_TRACE_TOOL_PATH) + " " + args + " 2>&1";
  std::string out;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, got);
  }
  pclose(pipe);
  return out;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class TraceToolCliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ASSERT_EQ(run("gen --workload=zipf:m=500,a=0.9 --refs=20000 "
                  "--out=trace_cli_test.trc"),
              0);
  }
};

TEST_F(TraceToolCliTest, UnknownEngineIsUsageError) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=warp"), 2);
}

TEST_F(TraceToolCliTest, UnknownEngineRejectedForEveryCommand) {
  // The name is validated at parse time, before any work happens.
  EXPECT_EQ(run("gen --refs=10 --engine=warp --out=should_not_exist.trc"), 2);
}

TEST_F(TraceToolCliTest, SequentialEngineRuns) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=lru"), 0);
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=lru --bound=256"), 0);
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=olken"), 0);
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=olken --bound=256"), 0);
}

TEST_F(TraceToolCliTest, SequentialEngineWithStreamIsUsageError) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=lru --stream"), 2);
}

TEST_F(TraceToolCliTest, OracleEnginesAreNotToolEngines) {
  // The naive, interval and Bennett-Kruskal (fenwick) engines remain
  // test/bench oracles only, and the pointer trees bench ablations:
  // --engine=olken runs on the ranks' stack.
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=naive"), 2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=fenwick"), 2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=interval"), 2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=splay"), 2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=avl"), 2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=treap"), 2);
}

TEST_F(TraceToolCliTest, MissingTraceIsRuntimeError) {
  EXPECT_EQ(run("analyze no_such_file.trc --engine=lru"), 1);
}

TEST_F(TraceToolCliTest, DefaultEngineStillWorks) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2"), 0);
}

// --- Transport flag matrix (ISSUE 8) ---------------------------------------

TEST_F(TraceToolCliTest, InProcessTransportsAnalyze) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=threads"),
            0);
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=shm"), 0);
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=tcp"), 0);
}

TEST_F(TraceToolCliTest, BadTransportSpecIsUsageError) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --transport=carrier-pigeon"), 2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --transport=shm:bogus=1"), 2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --transport=shm:ring=0"), 2);
}

TEST_F(TraceToolCliTest, EndpointFlagsNeedTheMatchingTransport) {
  // --rank without a cross-process wire.
  EXPECT_EQ(run("analyze trace_cli_test.trc --rank=0"), 2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --transport=threads --rank=0"),
            2);
  // --peers is tcp-only, --segment is shm-only.
  EXPECT_EQ(run("analyze trace_cli_test.trc --transport=shm "
                "--peers=a:1,b:2"),
            2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --transport=tcp --segment=/x"),
            2);
  // Distributed shm needs a named segment; distributed tcp needs one peer
  // per rank; peers without --rank is meaningless.
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=shm "
                "--rank=0"),
            2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=tcp "
                "--rank=0 --peers=127.0.0.1:1"),
            2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=tcp "
                "--peers=127.0.0.1:1,127.0.0.1:2"),
            2);
  // Rank out of range.
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=shm "
                "--segment=/parda-cli --rank=2"),
            2);
}

TEST_F(TraceToolCliTest, SequentialEngineRejectsExplicitWireTransport) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=lru --transport=shm"),
            2);
  // ... but a process-wide $PARDA_TRANSPORT does not break sequential
  // engines (they ignore the wire instead of failing).
  EXPECT_EQ(run_env("PARDA_TRANSPORT=shm",
                    "analyze trace_cli_test.trc --engine=lru"),
            0);
}

TEST_F(TraceToolCliTest, DistributedModeRejectsPoolOnlyFeatures) {
  const std::string dist =
      "analyze trace_cli_test.trc --procs=2 --transport=tcp "
      "--peers=127.0.0.1:1,127.0.0.1:2 --rank=0 ";
  EXPECT_EQ(run(dist + "--watchdog-ms=100"), 2);
  EXPECT_EQ(run(dist + "--repeat=3"), 2);
}

TEST_F(TraceToolCliTest, TransportResolvesCliOverEnvOverDefault) {
  // A bogus environment value fails strict parsing...
  EXPECT_EQ(run_env("PARDA_TRANSPORT=warp-drive",
                    "analyze trace_cli_test.trc --procs=2"),
            2);
  // ...unless the command line overrides it (CLI wins)...
  EXPECT_EQ(run_env("PARDA_TRANSPORT=warp-drive",
                    "analyze trace_cli_test.trc --procs=2 "
                    "--transport=threads"),
            0);
  // ...and a valid env value selects the wire with no flag at all.
  EXPECT_EQ(run_env("PARDA_TRANSPORT=shm",
                    "analyze trace_cli_test.trc --procs=2"),
            0);
}

/// Launches one trace_tool rank process per rank, each under `timeout` (so
/// a rank that never exits fails the test instead of hanging it), and
/// returns every rank's exit code in rank order (124: timed out). The
/// peers all analyze the same trace, so the run exercises the real
/// cross-process rendezvous + wire + implicit final barrier.
std::vector<int> run_distributed(const std::string& common, int np) {
  const std::string rank_cmd = "timeout -k 5 60 " +
                               std::string(PARDA_TRACE_TOOL_PATH) + " " +
                               common + " --rank=";
  std::string cmd = "( ";
  for (int r = 1; r < np; ++r) {
    cmd += rank_cmd + std::to_string(r) + " >/dev/null 2>&1 & p" +
           std::to_string(r) + "=$! ; ";
  }
  cmd += rank_cmd + "0 >/dev/null 2>&1 ; echo $? ; ";
  for (int r = 1; r < np; ++r) {
    cmd += "wait $p" + std::to_string(r) + " ; echo $? ; ";
  }
  std::FILE* out = popen((cmd + ")").c_str(), "r");
  std::vector<int> codes;
  int code = 0;
  while (out != nullptr && std::fscanf(out, "%d", &code) == 1) {
    codes.push_back(code);
  }
  if (out != nullptr) pclose(out);
  return codes;
}

TEST_F(TraceToolCliTest, DistributedTcpAnalyzeAcrossProcesses) {
  // Fixed ports below the kernel's ephemeral range (32768-60999), so no
  // concurrent outgoing connection can already hold them.
  EXPECT_EQ(run_distributed(
                "analyze trace_cli_test.trc --procs=2 --transport=tcp "
                "--peers=127.0.0.1:24917,127.0.0.1:24918",
                2),
            (std::vector<int>{0, 0}));
}

TEST_F(TraceToolCliTest, DistributedShmAnalyzeAcrossProcesses) {
  EXPECT_EQ(run_distributed(
                "analyze trace_cli_test.trc --procs=2 --transport=shm "
                "--segment=/parda-cli-test",
                2),
            (std::vector<int>{0, 0}));
}

TEST_F(TraceToolCliTest, DistributedStreamEndsOnEveryProcess) {
  // Only rank 0 reads the pipe, so only rank 0's process may run the file
  // producer: another rank's producer would block on its full pipe and
  // never exit. The trace spans two 64Ki-word read blocks, more than a
  // 1024-word pipe holds.
  ASSERT_EQ(run("gen --workload=zipf:m=500,a=0.9 --refs=100000 "
                "--out=trace_cli_stream.trc"),
            0);
  EXPECT_EQ(run_distributed(
                "analyze trace_cli_stream.trc --stream --pipe=1024 "
                "--procs=2 --transport=tcp "
                "--peers=127.0.0.1:24919,127.0.0.1:24920",
                2),
            (std::vector<int>{0, 0}));
}

// --- Ingest: the container, or --stream (DESIGN.md "Ingest") ---------------

TEST_F(TraceToolCliTest, TheContainerPicksTheIngestPath) {
  ASSERT_EQ(run("convert trace_cli_test.trc trace_cli_test.trz"), 0);
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2"), 0);  // mapped
  EXPECT_EQ(run("analyze trace_cli_test.trz --procs=2"), 0);  // decoded
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --stream"), 0);
  // Only a binary trace streams, and only a *.trz is read as an archive.
  EXPECT_EQ(run("analyze trace_cli_test.trz --procs=2 --stream"), 1);
  write_text("trace_cli_test.dat", slurp("trace_cli_test.trz"));
  const std::string out = output_of("analyze trace_cli_test.dat --procs=2");
  EXPECT_NE(out.find("bad trace magic"), std::string::npos) << out;
  EXPECT_EQ(run("analyze trace_cli_test.dat --procs=2"), 1);
  // A text trace has no parallel ingest path: convert it first.
  ASSERT_EQ(run("convert trace_cli_test.trc trace_cli_test.txt"), 0);
  EXPECT_EQ(run("analyze trace_cli_test.txt --procs=2"), 1);
  EXPECT_EQ(run("analyze trace_cli_test.txt --engine=lru"), 0);
}

TEST_F(TraceToolCliTest, StreamNeedsPositiveChunkAndPipe) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --stream --chunk=0"), 2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --stream --pipe=0"), 2);
  // A phase of np * C references that overflows is as degenerate as C = 0.
  EXPECT_EQ(run("analyze trace_cli_test.trc --stream --procs=2 "
                "--chunk=9223372036854775808"),
            2);
}

TEST_F(TraceToolCliTest, IngestIsNotAFlag) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --ingest=pipe"), 2);
}

// --- convert: .trz versions and chunking ------------------------------------

TEST_F(TraceToolCliTest, ConvertWritesChunkedV2ByDefault) {
  ASSERT_EQ(run("convert trace_cli_test.trc trace_cli_conv.trz"), 0);
  EXPECT_EQ(run("analyze trace_cli_conv.trz --procs=2"), 0);
  ASSERT_EQ(run("convert trace_cli_test.trc trace_cli_conv.trz "
                "--chunk-refs=1024"),
            0);
  EXPECT_EQ(run("analyze trace_cli_conv.trz --procs=2"), 0);
}

TEST_F(TraceToolCliTest, V1ArchivesStillReadableButNotChunkIngestable) {
  parda::write_trz_v1("trace_cli_v1.trz",
                      parda::read_trace_binary("trace_cli_test.trc"));
  EXPECT_EQ(run("analyze trace_cli_v1.trz --engine=lru"), 0);
  // Chunked ingest, the path of every .trz, demands v2; the error names the
  // convert command below.
  EXPECT_EQ(run("analyze trace_cli_v1.trz --procs=2"), 1);
  // The upgrade path named in that error actually works, and writes the
  // archive a conversion of the original trace writes.
  ASSERT_EQ(run("convert trace_cli_v1.trz trace_cli_v2.trz"), 0);
  EXPECT_EQ(run("analyze trace_cli_v2.trz --procs=2"), 0);
  ASSERT_EQ(run("convert trace_cli_test.trc trace_cli_direct.trz"), 0);
  EXPECT_EQ(slurp("trace_cli_v2.trz"), slurp("trace_cli_direct.trz"));
}

TEST_F(TraceToolCliTest, TrzFlagValidation) {
  // --chunk-refs on a non-.trz output, and a degenerate chunk size.
  EXPECT_EQ(run("convert trace_cli_test.trc plain.trc --chunk-refs=64"), 2);
  EXPECT_EQ(run("convert trace_cli_test.trc x.trz --chunk-refs=0"), 2);
  // gen validates the same knob.
  EXPECT_EQ(run("gen --refs=100 --out=x.trc --chunk-refs=64"), 2);
  // gen and convert write one .trz layout, so there is no version flag.
  for (const char* version : {"1", "2", "3"}) {
    EXPECT_EQ(run(std::string("convert trace_cli_test.trc x.trz "
                              "--trz-version=") +
                  version),
              2);
  }
}

TEST_F(TraceToolCliTest, GenWritesChunkedTrzDirectly) {
  ASSERT_EQ(run("gen --workload=zipf:m=200,a=0.8 --refs=5000 "
                "--out=trace_cli_gen.trz --chunk-refs=512"),
            0);
  EXPECT_EQ(run("analyze trace_cli_gen.trz --procs=2"), 0);
}

// --- Numbers in text: util/parse.hpp's grammar -------------------------------

TEST_F(TraceToolCliTest, NumericFlagsAreStrict) {
  EXPECT_EQ(run("gen --refs=+1000 --out=trace_cli_num.trc"), 2);
  EXPECT_EQ(run("gen \"--refs= 1000\" --out=trace_cli_num.trc"), 2);
  EXPECT_EQ(run("gen --refs=1e3 --out=trace_cli_num.trc"), 2);
  // Leading zeros are decimal: 010 is ten references, not eight.
  ASSERT_EQ(run("gen --refs=010 --out=trace_cli_num.trc"), 0);
  EXPECT_EQ(parda::read_trace_binary("trace_cli_num.trc").size(), 10u);
  // An int flag above INT_MAX is a usage error, not one rank.
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=4294967297"), 2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --stream --serve=+0"), 2);
}

TEST_F(TraceToolCliTest, MalformedSpecsFailBeforeAnyWork) {
  // A list item that used to read as 0.
  EXPECT_EQ(run("gen --workload='stackdist:d=1/x,w=0.5/zz' "
                "--out=trace_cli_num.trc"),
            1);
  // n=-1 used to wrap to 2^64 - 1, a point that never fires.
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 "
                "--fault-plan=rank=0,op=recv,n=-1"),
            1);
  const std::string out = output_of(
      "analyze trace_cli_test.trc --procs=2 "
      "--fault-plan=rank=4294967296,op=recv,n=0");
  EXPECT_NE(out.find("bad number '4294967296'"), std::string::npos) << out;
}

TEST_F(TraceToolCliTest, TextTracesRejectMalformedLines) {
  write_text("trace_cli_bad.txt",
             "1\n2x\n-1\n12345678901234567890123\n" +
                 std::string(299, '0') + "7\n");
  std::string out = output_of("analyze trace_cli_bad.txt --engine=lru");
  EXPECT_NE(out.find("malformed address on line 2 at byte offset 2"),
            std::string::npos)
      << out;
  EXPECT_EQ(run("analyze trace_cli_bad.txt --engine=lru"), 1);
  write_text("trace_cli_bad.txt", "7fff0000\n7fff0008\n7fff0000\n");
  out = output_of("analyze trace_cli_bad.txt --engine=lru");
  EXPECT_NE(out.find("line 1 at byte offset 0"), std::string::npos) << out;
  write_text("trace_cli_lead.txt", "0123\n123\n");
  out = output_of("analyze trace_cli_lead.txt --engine=lru");
  EXPECT_NE(out.find("2 references, 1 distinct"), std::string::npos) << out;
}

TEST_F(TraceToolCliTest, TextTraceAnalyzesLikeItsBinary) {
  ASSERT_EQ(run("convert trace_cli_test.trc trace_cli_same.txt"), 0);
  const std::string text =
      output_of("analyze trace_cli_same.txt --engine=olken");
  EXPECT_NE(text.find("20,000 references"), std::string::npos) << text;
  EXPECT_EQ(text, output_of("analyze trace_cli_test.trc --engine=olken"));
}

// --- Fault plan: --fault-plan > $PARDA_FAULT_PLAN > none ---------------------

TEST_F(TraceToolCliTest, FaultPlanResolvesCliOverEnvOverDefault) {
  const std::string analyze =
      "analyze trace_cli_test.trc --procs=2 --timeout-ms=5000";
  // The environment alone injects the fault...
  EXPECT_EQ(run_env("PARDA_FAULT_PLAN=rank=0,op=recv,n=0", analyze), 1);
  // ...the command line beats it with a point the run never reaches...
  EXPECT_EQ(run_env("PARDA_FAULT_PLAN=rank=0,op=recv,n=0",
                    analyze + " --fault-plan=rank=0,op=recv,n=1000000"),
            0);
  // ...and an empty variable counts as unset.
  EXPECT_EQ(run_env("PARDA_FAULT_PLAN=", analyze), 0);
}

// --- A World that fails to build ---------------------------------------------

TEST_F(TraceToolCliTest, ShmSegmentCollisionFailsInsteadOfHanging) {
  const std::string name = "/parda-cli-collide-" + std::to_string(getpid());
  const int fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  close(fd);
  // Under timeout, like the distributed cases: a run that never exits
  // reads 124 instead of hanging the suite.
  const std::string cmd = "timeout -k 5 20 " +
                          std::string(PARDA_TRACE_TOOL_PATH) +
                          " analyze trace_cli_test.trc --procs=2 "
                          "--transport=shm:segment=" +
                          name + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  shm_unlink(name.c_str());
  EXPECT_EQ(WEXITSTATUS(status), 1);
}

}  // namespace

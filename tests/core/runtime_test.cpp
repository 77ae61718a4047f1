#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault.hpp"
#include "core/runtime.hpp"
#include "obs/obs.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_pipe.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

std::vector<Addr> make_trace(std::uint64_t refs, std::uint64_t seed) {
  ZipfWorkload w(500, 0.9, seed);
  return generate_trace(w, refs);
}

std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(PardaRuntimeTest, RepeatedAnalyzeLeaksNoThreads) {
  const auto trace = make_trace(5000, 1);
  core::PardaRuntime runtime;
  PardaOptions options;
  options.num_procs = 4;
  auto session = runtime.session(options);

  const Histogram first = session.analyze(trace).hist;
  const std::size_t after_first = live_threads();
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(session.analyze(trace).hist == first);
  }
  // The pool parks its workers between jobs; repeated analyses must not
  // spawn anything new.
  EXPECT_EQ(live_threads(), after_first);
  EXPECT_EQ(runtime.capacity(), 4);
  EXPECT_EQ(runtime.jobs_run(), 11u);
  EXPECT_EQ(runtime.worlds_created(), 1u);
  EXPECT_EQ(runtime.world_reuses(), 10u);
}

TEST(PardaRuntimeTest, SessionMatchesTransientEntryPoint) {
  const auto trace = make_trace(8000, 2);
  PardaOptions options;
  options.num_procs = 3;
  const Histogram reference = parda_analyze(trace, options).hist;

  core::PardaRuntime runtime;
  auto session = runtime.session(options);
  EXPECT_TRUE(session.analyze(trace).hist == reference);
  // Bounded too: the session honors option changes between calls.
  session.options().bound = 64;
  const Histogram bounded_ref =
      parda_analyze(trace, session.options()).hist;
  EXPECT_TRUE(session.analyze(trace).hist == bounded_ref);
}

TEST(PardaRuntimeTest, JobsRunMetricsAreMonotone) {
  const auto trace = make_trace(2000, 3);
  core::PardaRuntime runtime;
  auto session = runtime.session();
  std::uint64_t last = runtime.jobs_run();
  for (int i = 0; i < 5; ++i) {
    session.analyze(trace);
    const std::uint64_t now = runtime.jobs_run();
    EXPECT_GT(now, last);
    last = now;
  }
  EXPECT_GE(runtime.world_reuses(), 4u);
}

TEST(PardaRuntimeTest, FaultedJobLeavesRuntimeHealthy) {
  const auto trace = make_trace(6000, 4);
  const comm::FaultPlan plan = comm::FaultPlan::parse("rank=1,op=recv,n=0");

  core::PardaRuntime runtime;
  PardaOptions options;
  options.num_procs = 3;
  const Histogram reference = parda_analyze(trace, options).hist;

  auto session = runtime.session(options);
  session.options().run_options.fault_plan = &plan;
  EXPECT_THROW(session.analyze(trace), comm::FaultInjectedError);

  // Dropping the plan makes the very next job on the same runtime clean
  // and exact — the poisoned World was reset, not rebuilt.
  session.options().run_options.fault_plan = nullptr;
  EXPECT_TRUE(session.analyze(trace).hist == reference);
  EXPECT_GE(runtime.world_reuses(), 1u);
}

TEST(PardaRuntimeTest, ConcurrentSessionsMatchSequentialResults) {
  const auto trace_a = make_trace(10000, 5);
  const auto trace_b = make_trace(10000, 6);
  PardaOptions options_a;
  options_a.num_procs = 2;
  PardaOptions options_b;
  options_b.num_procs = 4;
  options_b.bound = 128;
  const Histogram ref_a = parda_analyze(trace_a, options_a).hist;
  const Histogram ref_b = parda_analyze(trace_b, options_b).hist;

  core::PardaRuntime runtime;
  bool ok_a = true;
  bool ok_b = true;
  std::thread client_a([&] {
    auto session = runtime.session(options_a);
    for (int i = 0; i < 6; ++i) {
      ok_a = ok_a && (session.analyze(trace_a).hist == ref_a);
    }
  });
  std::thread client_b([&] {
    auto session = runtime.session(options_b);
    for (int i = 0; i < 6; ++i) {
      ok_b = ok_b && (session.analyze(trace_b).hist == ref_b);
    }
  });
  client_a.join();
  client_b.join();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
  EXPECT_EQ(runtime.jobs_run(), 12u);
}

TEST(PardaRuntimeTest, GaugesRepublishPerJob) {
  // Runtime gauges are re-published at every job admission: `values` holds
  // the shape of the most recent job, `shards`/`max` the lifetime
  // high-water mark (see DESIGN.md "Live telemetry & attribution").
  struct ScopedEnable {
    bool prev = obs::enabled();
    ScopedEnable() { obs::set_enabled(true); }
    ~ScopedEnable() { obs::set_enabled(prev); }
  } on;

  const auto trace = make_trace(3000, 9);
  core::PardaRuntime runtime;
  PardaOptions big;
  big.num_procs = 4;
  runtime.session(big).analyze(trace);
  PardaOptions small;
  small.num_procs = 2;
  runtime.session(small).analyze(trace);

  // Both jobs were admitted from this (unattributed) thread: shard 0.
  obs::Gauge& np = obs::registry().gauge("runtime.job_np");
  EXPECT_EQ(np.values()[0], 2u);  // current job's np, not a running max
  EXPECT_GE(np.shards()[0], 4u);  // ...which lives in the high-water mark
  EXPECT_GE(np.max(), 4u);
  obs::Gauge& capacity = obs::registry().gauge("runtime.pool_capacity");
  EXPECT_GE(capacity.values()[0], 2u);
}

TEST(PardaRuntimeTest, AnalyzeStreamViaSession) {
  const auto trace = make_trace(12000, 7);
  PardaOptions options;
  options.num_procs = 2;
  options.chunk_words = 1024;
  const Histogram reference = parda_analyze(trace, options).hist;

  core::PardaRuntime runtime;
  auto session = runtime.session(options);
  PipeTraceSource source(trace.size() + 1,
                         [&](TracePipe& pipe) { pipe.write(trace); });
  EXPECT_TRUE(session.analyze(source).hist == reference);
}

TEST(PardaRuntimeTest, AnalyzeFileViaSession) {
  const auto trace = make_trace(9000, 8);
  const std::string path =
      (std::filesystem::temp_directory_path() / "runtime_test.trc").string();
  write_trace_binary(path, trace);

  PardaOptions options;
  options.num_procs = 2;
  options.chunk_words = 2048;
  const Histogram reference = parda_analyze(trace, options).hist;

  core::PardaRuntime runtime;
  auto session = runtime.session(options);
  EXPECT_TRUE(session.analyze_file(path).hist == reference);
  // Second pass reuses the same workers and World.
  EXPECT_TRUE(session.analyze_file(path).hist == reference);
  EXPECT_GE(runtime.world_reuses(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace parda

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "apps/online_mrc.hpp"
#include "core/parda.hpp"
#include "core/runtime.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

TEST(WindowedMrcTest, MatchesPerWindowColdAnalysisExactly) {
  // The runtime-backed monitor analyzes each completed window on the shared
  // pool; its aggregate must equal folding per-window one-shot
  // parda_analyze results (the old path: a fresh thread set per window).
  ZipfWorkload w(400, 0.9, 11);
  const auto trace = generate_trace(w, 12000);
  constexpr std::uint64_t kBound = 256;
  constexpr std::uint64_t kWindow = 1500;
  constexpr double kDecay = 0.5;

  core::PardaRuntime runtime;
  WindowedMrcMonitor monitor(runtime, kBound, kWindow, kDecay,
                             /*num_procs=*/2);
  for (Addr a : trace) monitor.access(a);

  PardaOptions options;
  options.num_procs = 2;
  options.bound = kBound;
  Histogram expected;
  std::size_t pos = 0;
  while (pos + kWindow <= trace.size()) {
    const std::span<const Addr> window(trace.data() + pos, kWindow);
    decayed_fold(expected, parda_analyze(window, options).hist, kDecay);
    pos += kWindow;
  }
  if (pos < trace.size()) {
    const std::span<const Addr> tail(trace.data() + pos, trace.size() - pos);
    expected.merge(parda_analyze(tail, options).hist);
  }

  EXPECT_TRUE(monitor.snapshot() == expected);
  EXPECT_EQ(monitor.references_seen(), trace.size());
  EXPECT_EQ(monitor.windows_completed(), trace.size() / kWindow);
  // Every window job reused the runtime's workers: one World, many reuses.
  EXPECT_EQ(runtime.capacity(), 2);
  EXPECT_GE(runtime.world_reuses(), monitor.windows_completed() - 1);
}

TEST(WindowedMrcTest, BatchedFeedMatchesPerReferenceLoop) {
  ZipfWorkload w(250, 0.9, 17);
  const auto trace = generate_trace(w, 7300);  // not a window multiple
  core::PardaRuntime runtime;
  WindowedMrcMonitor batched(runtime, 128, 1500, 0.5, /*num_procs=*/2);
  std::span<const Addr> rest(trace);
  for (std::size_t take = 7; !rest.empty(); take += 601) {
    const std::size_t n = std::min(take, rest.size());
    batched.feed(rest.first(n));
    rest = rest.subspan(n);
  }
  WindowedMrcMonitor looped(runtime, 128, 1500, 0.5, /*num_procs=*/2);
  for (Addr a : trace) looped.access(a);
  EXPECT_TRUE(batched.snapshot() == looped.snapshot());
  EXPECT_EQ(batched.windows_completed(), looped.windows_completed());
}

}  // namespace
}  // namespace parda

// The ISSUE-7 acceptance scenario: >= 8 concurrent tenants on one shared
// runtime — one aborting every window via fault injection, one exceeding
// its memory quota — driven from concurrent client threads. The service
// must never crash, unaffected tenants must be bit-identical to solo
// runs, the degraded tenant's resident state must stay under its quota,
// and a drain must flush every tenant's histogram. Runs under TSAN and
// ASan in CI (see CMakePresets.json).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/online_mrc.hpp"
#include "comm/fault.hpp"
#include "core/runtime.hpp"
#include "hist/histogram.hpp"
#include "serve/service.hpp"
#include "workload/generators.hpp"

namespace parda::serve {
namespace {

std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// Baseline for leak checks: runs one throwaway thread first so lazily
/// spawned runtime threads (e.g. a sanitizer's background thread) exist
/// before the count is taken.
std::size_t thread_baseline() {
  std::thread([] {}).join();
  return live_threads();
}

/// Joined threads can linger in /proc/self/task for a moment; poll before
/// declaring a leak.
void expect_no_thread_leak(std::size_t allowed) {
  for (int i = 0; i < 100 && live_threads() > allowed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(live_threads(), allowed);
}

std::vector<Addr> tenant_trace(std::uint64_t refs, std::uint64_t footprint,
                               std::uint64_t seed) {
  ZipfWorkload w(footprint, 0.9, seed);
  return generate_trace(w, refs);
}

// Every tenant feeds in fixed-size batches; window rolls depend only on
// the tenant's own cumulative reference count, so interleaving with other
// tenants cannot change its histogram.
void feed_in_batches(MrcService& service, const std::string& name,
                     std::span<const Addr> trace, std::size_t batch) {
  for (std::size_t off = 0; off < trace.size(); off += batch) {
    const std::size_t n = std::min(batch, trace.size() - off);
    service.ingest(name, trace.subspan(off, n));
  }
}

TEST(ServeChaosTest, ConcurrentTenantsWithFaultsAndQuotas) {
  constexpr int kCleanTenants = 6;  // + 1 faulty + 1 hog = 8 total
  constexpr std::uint64_t kRefs = 12000;
  // The hog's exact-mode footprint is its reserved window buffer (128 KiB)
  // plus the aggregate histogram, so this quota trips once the first
  // window lands; the degraded sampler at a 256-entry budget sits well
  // under it.
  constexpr std::uint64_t kMemoryQuota = 128 * 1024;

  core::PardaRuntime runtime;
  MrcService service(runtime);

  // num_procs=2: rank 1 always sends (infinities, then the reduction) and
  // never recvs, so op=send is the reliably-firing injection point.
  const comm::FaultPlan plan = comm::FaultPlan::parse("rank=1,op=send,n=0");
  TenantConfig base;
  base.bound = 1 << 12;
  base.window = 2048;
  base.num_procs = 2;

  TenantConfig faulty = base;
  faulty.fault_plan = &plan;
  faulty.quotas.max_aborts = ~std::uint64_t{0};  // abort forever, never out

  TenantConfig hog = base;
  hog.window = 16384;  // 128 KiB buffer alone
  hog.quotas.memory_quota_bytes = kMemoryQuota;
  hog.quotas.sampler_tracked = 256;

  ASSERT_EQ(service.register_tenant("faulty", faulty), Admission::kOk);
  ASSERT_EQ(service.register_tenant("hog", hog), Admission::kOk);
  std::vector<std::string> clean_names;
  std::vector<std::vector<Addr>> clean_traces;
  for (int i = 0; i < kCleanTenants; ++i) {
    const std::string name = "clean" + std::to_string(i);
    ASSERT_EQ(service.register_tenant(name, base), Admission::kOk);
    clean_names.push_back(name);
    clean_traces.push_back(
        tenant_trace(kRefs, 500 + 100 * static_cast<std::uint64_t>(i),
                     static_cast<std::uint64_t>(i) + 1));
  }
  const auto faulty_trace = tenant_trace(kRefs, 400, 99);
  const auto hog_trace = tenant_trace(4 * kRefs, 200000, 98);

  const std::size_t threads_before = thread_baseline();

  // One client thread per tenant, all hammering the shared pool at once.
  {
    std::vector<std::thread> clients;
    clients.emplace_back([&] {
      // Aborts EVERY completed window: 2048-ref batches guarantee one
      // window job (and one World poison/recycle) per ingest.
      feed_in_batches(service, "faulty", faulty_trace, 2048);
    });
    clients.emplace_back(
        [&] { feed_in_batches(service, "hog", hog_trace, 4096); });
    for (int i = 0; i < kCleanTenants; ++i) {
      clients.emplace_back([&, i] {
        feed_in_batches(service, clean_names[static_cast<std::size_t>(i)],
                        clean_traces[static_cast<std::size_t>(i)], 1536);
      });
    }
    for (auto& t : clients) t.join();
  }

  // The faulty tenant aborted every window but was never quarantined
  // (infinite abort quota) and never completed a window.
  {
    const auto s = service.status("faulty");
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->mode, TenantMode::kExact);
    EXPECT_EQ(s->windows, 0u);
    EXPECT_GE(s->aborts, kRefs / 2048 - 1);
  }

  // The hog degraded and its resident state sits under its quota.
  {
    const auto s = service.status("hog");
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->mode, TenantMode::kDegraded);
    EXPECT_LT(s->footprint_bytes, kMemoryQuota);
    EXPECT_LT(s->sample_rate, 1.0);
  }

  // No worker-thread leak: the pool parked its workers; repeated
  // abort/recycle cycles must not have spawned extras beyond the pool's
  // steady-state capacity (client threads are joined already). Checked
  // before the solo-comparison runtime below adds its own workers.
  expect_no_thread_leak(threads_before +
                        static_cast<std::size_t>(runtime.capacity()));

  // Unaffected tenants: bit-identical to a solo run of the same stream on
  // a fresh runtime with nothing else going on.
  {
    core::PardaRuntime solo_runtime;
    for (int i = 0; i < kCleanTenants; ++i) {
      WindowedMrcMonitor solo(solo_runtime, base.bound, base.window,
                              base.decay, base.num_procs);
      solo.feed(clean_traces[static_cast<std::size_t>(i)]);
      const auto served =
          service.histogram(clean_names[static_cast<std::size_t>(i)]);
      ASSERT_TRUE(served.has_value()) << clean_names[i];
      EXPECT_TRUE(*served == solo.snapshot())
          << clean_names[i] << " diverged from its solo run";
      const auto s = service.status(clean_names[static_cast<std::size_t>(i)]);
      EXPECT_EQ(s->mode, TenantMode::kExact);
      EXPECT_EQ(s->aborts, 0u);
      EXPECT_EQ(s->references, kRefs);
    }
  }

  // Graceful drain: every tenant flushes, including the quarantine-free
  // faulty one (its safe aggregate is empty) and the degraded hog.
  const auto flushed = service.drain();
  ASSERT_EQ(flushed.size(), 2u + kCleanTenants);
  for (int i = 0; i < kCleanTenants; ++i) {
    const auto& h = flushed.at(clean_names[static_cast<std::size_t>(i)]);
    EXPECT_EQ(h.total(), kRefs) << clean_names[i];
  }
  EXPECT_GT(flushed.at("hog").total(), 0u);
  EXPECT_TRUE(service.draining());
  EXPECT_EQ(service.ingest("clean0", clean_traces[0]), Admission::kDraining);
}

// The satellite fault-isolation test at the monitor layer: N windowed
// monitors multiplex one runtime, one of them aborting every window via
// its session's fault plan. The others' histograms must equal solo runs,
// and the pool must not leak threads across repeated World recoveries.
TEST(ServeChaosTest, MonitorsShareRuntimeAcrossRepeatedAborts) {
  core::PardaRuntime runtime;
  const comm::FaultPlan plan = comm::FaultPlan::parse("rank=1,op=send,n=0");

  constexpr int kMonitors = 4;
  constexpr std::uint64_t kWindow = 1024;
  std::vector<std::vector<Addr>> traces;
  for (int i = 0; i < kMonitors; ++i) {
    traces.push_back(tenant_trace(8 * kWindow, 300, 40 + i));
  }

  std::vector<WindowedMrcMonitor> monitors;
  monitors.reserve(kMonitors);
  for (int i = 0; i < kMonitors; ++i) {
    monitors.emplace_back(runtime, /*bound=*/1 << 12, kWindow, 1.0, 2);
  }
  monitors[0].options().run_options.fault_plan = &plan;

  const std::size_t threads_before = thread_baseline();
  std::vector<std::thread> feeders;
  for (int i = 0; i < kMonitors; ++i) {
    feeders.emplace_back([&, i] {
      const auto& trace = traces[static_cast<std::size_t>(i)];
      for (std::size_t off = 0; off < trace.size(); off += kWindow) {
        auto batch = std::span(trace).subspan(off, kWindow);
        if (i == 0) {
          EXPECT_THROW(monitors[0].feed(batch), std::exception);
        } else {
          monitors[static_cast<std::size_t>(i)].feed(batch);
        }
      }
    });
  }
  for (auto& t : feeders) t.join();

  EXPECT_EQ(monitors[0].windows_completed(), 0u);
  EXPECT_EQ(monitors[0].windows_aborted(), 8u);
  // Thread-leak check before the solo runtime spawns its own workers.
  expect_no_thread_leak(threads_before +
                        static_cast<std::size_t>(runtime.capacity()));

  core::PardaRuntime solo_runtime;
  for (int i = 1; i < kMonitors; ++i) {
    WindowedMrcMonitor solo(solo_runtime, 1 << 12, kWindow, 1.0, 2);
    solo.feed(traces[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(monitors[static_cast<std::size_t>(i)].snapshot() ==
                solo.snapshot())
        << "monitor " << i << " diverged";
  }
}

}  // namespace
}  // namespace parda::serve

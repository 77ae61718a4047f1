// Per-tenant state for the multi-tenant ingest service (service.hpp): one
// TenantSession owns one tenant's analysis pipeline and walks it through
// the service's degradation ladder:
//
//   kExact       WindowedMrcMonitor — every window analyzed exactly by the
//                shared runtime's parallel bounded engine.
//   kDegraded    FixedSizeSampler — constant-memory SHARDS_adj sampling,
//                entered in place when the exact pipeline's resident state
//                exceeds the tenant's memory quota (the exact aggregate is
//                preserved; only subsequent windows are sampled).
//   kQuarantined terminal — entered when the tenant's window jobs keep
//                aborting (fault injection, deadline, watchdog) past the
//                abort quota, or when the tenant ships a malformed frame.
//                The analysis state is torn down; the final histogram is
//                the last safe aggregate.
//
// TenantSession is NOT thread-safe: MrcService wraps each one in its own
// mutex so tenants never contend with each other above the runtime's own
// FIFO job admission.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "apps/online_mrc.hpp"
#include "comm/comm.hpp"
#include "core/runtime.hpp"
#include "hist/histogram.hpp"
#include "seq/fixed_size_sampler.hpp"
#include "util/types.hpp"

namespace parda::serve {

/// Per-tenant admission limits. Zero means "unlimited" for the rate and
/// byte quotas.
struct TenantQuotas {
  /// Token-bucket refill rate in references/second (burst = one second's
  /// worth). Exceeding it rejects the batch with kRateLimited.
  std::uint64_t max_refs_per_sec = 0;
  /// Largest single ingest batch, in references (kBatchTooLarge beyond).
  std::size_t max_batch_refs = std::size_t{1} << 20;
  /// Cap on buffered window bytes (pending refs + incoming batch); a batch
  /// that would overflow it is rejected with kQueueFull.
  std::uint64_t max_queued_bytes = 0;
  /// Resident analyzer footprint that triggers in-place degradation to
  /// fixed-size sampling. 0 = never degrade.
  std::uint64_t memory_quota_bytes = 0;
  /// FixedSizeSampler budget (distinct tracked addresses) after
  /// degradation.
  std::size_t sampler_tracked = 4096;
  /// Aborted window jobs tolerated before quarantine. The default
  /// quarantines on the first abort; chaos tests raise it to exercise
  /// repeated abort/recovery cycles on the shared pool.
  std::uint64_t max_aborts = 1;
};

/// The largest tenant window, in references: 2^24. The exact monitor
/// reserves its whole window up front, 8 bytes a reference, so a window at
/// the limit reserves 128 MiB.
inline constexpr std::uint64_t kMaxTenantWindow = std::uint64_t{1} << 24;

/// Per-tenant analysis configuration (the shape of its MRC monitor).
struct TenantConfig {
  std::uint64_t bound = std::uint64_t{1} << 16;
  std::uint64_t window = std::uint64_t{1} << 14;  // at most kMaxTenantWindow
  double decay = 1.0;
  int num_procs = 2;
  TenantQuotas quotas;
  /// Deterministic fault injection for this tenant's window jobs (test
  /// hook; must outlive the session). Not exposed over HTTP.
  const comm::FaultPlan* fault_plan = nullptr;
};

enum class TenantMode { kExact, kDegraded, kQuarantined };

const char* to_string(TenantMode mode) noexcept;

class TenantSession {
 public:
  TenantSession(std::string name, core::PardaRuntime& runtime,
                const TenantConfig& config);

  const std::string& name() const noexcept { return name_; }
  const TenantConfig& config() const noexcept { return config_; }
  TenantMode mode() const noexcept { return mode_; }

  /// Feeds a batch. In kExact mode a completed window submits one pool
  /// job, which may throw (RankAbortedError, DeadlineExceededError, ...);
  /// the aborted window's references are dropped, aborts() is bumped, and
  /// the exception propagates for the service to apply quarantine policy.
  /// Must not be called in kQuarantined mode.
  void feed(std::span<const Addr> refs);

  /// Token-bucket admission for a batch of `n` references at time `now`.
  /// True = admitted (tokens consumed). Always true when the tenant has no
  /// rate quota.
  bool try_consume(std::size_t n, std::chrono::steady_clock::time_point now);

  /// Switches kExact -> kDegraded in place: the exact pipeline's aggregate
  /// (including its partial window, analyzed exactly one last time) seeds
  /// the degraded aggregate, then the monitor is destroyed and replaced by
  /// a FixedSizeSampler. No-op unless currently kExact.
  void degrade();

  /// Terminal: captures the last safe aggregate (never analyzes pending
  /// references — that could re-trip the fault that got us here), tears
  /// down the analysis state, and rejects all future feeds.
  void quarantine();

  /// The tenant's decayed histogram including in-progress state. In kExact
  /// mode this analyzes the pending window on demand and can therefore
  /// throw; in the other modes it cannot.
  Histogram snapshot() const;

  /// Drain-time flush: folds the in-progress window into the aggregate
  /// (exact analysis or sampler take) and returns the final histogram.
  /// May throw in kExact mode, like snapshot().
  Histogram flush();

  std::uint64_t references_seen() const noexcept { return seen_; }
  std::uint64_t windows_completed() const noexcept;
  std::uint64_t aborts() const noexcept { return aborts_; }
  /// References buffered toward the in-progress window (queue-bytes
  /// quota accounting).
  std::uint64_t pending_refs() const noexcept;
  /// Charges one abort observed outside feed() — a snapshot/flush analysis
  /// that threw — against the tenant's abort quota.
  void record_abort() noexcept { ++aborts_; }
  /// Current sampling rate: 1.0 while exact, the sampler's decayed rate
  /// once degraded.
  double sample_rate() const noexcept;
  /// Resident-state estimate for quota accounting. O(window + bound) while
  /// exact, O(sampler_tracked + bound) once degraded, ~0 once quarantined.
  std::uint64_t footprint_bytes() const noexcept;

 private:
  void roll_degraded_window();

  std::string name_;
  TenantConfig config_;
  TenantMode mode_ = TenantMode::kExact;
  std::unique_ptr<WindowedMrcMonitor> monitor_;  // kExact
  std::unique_ptr<FixedSizeSampler> sampler_;    // kDegraded
  Histogram aggregate_;       // kDegraded/kQuarantined: decayed window sum
  std::uint64_t window_fill_ = 0;  // kDegraded: refs in the current window
  std::uint64_t windows_base_ = 0;  // windows completed before mode change
  std::uint64_t seen_ = 0;
  std::uint64_t aborts_ = 0;
  // Token bucket; initialized on first rated ingest.
  double tokens_ = 0.0;
  bool bucket_primed_ = false;
  std::chrono::steady_clock::time_point last_refill_{};
};

}  // namespace parda::serve

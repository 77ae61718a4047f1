// Online miss-ratio-curve monitoring — the use case the paper's
// conclusions call out ("applications that rely on online analysis, such
// as cache sharing and partitioning"): a long-running consumer feeds
// references as they happen and reads off a fresh, recency-weighted MRC
// at any moment.
//
// The monitor analyzes each window of references with the bounded parallel
// engine (Algorithm 7's structure, so state stays O(bound)) and folds each
// completed window's histogram into a decayed aggregate:
// aggregate = decay * aggregate + window. decay = 1 remembers everything;
// smaller values track phase changes faster.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/runtime.hpp"
#include "hist/histogram.hpp"
#include "util/types.hpp"

namespace parda {

/// Folds a completed window into the decayed aggregate:
/// aggregate = round(decay * aggregate) + window, bin by bin (decay == 1
/// degenerates to a plain merge). Shared by WindowedMrcMonitor and the
/// serving layer's tenants.
void decayed_fold(Histogram& aggregate, const Histogram& window, double decay);

/// The runtime-backed monitor: it buffers each window and analyzes
/// completed windows with the parallel bounded engine on a shared
/// PardaRuntime — every window reuses the runtime's parked workers and
/// cached World rather than spawning a full thread set per window.
/// Windows are analyzed independently (each starts cold), so its histogram
/// equals folding per-window parda_analyze results exactly; cross-window
/// reuses surface as infinities, which the decayed aggregate treats as
/// cold misses.
///
/// The runtime must outlive the monitor. Feeding is single-threaded, but
/// several monitors may share one runtime: window jobs multiplex its pool.
class WindowedMrcMonitor {
 public:
  /// bound: largest cache size of interest (analysis state stays O(bound));
  /// window: references per aggregation step; decay in (0, 1]; num_procs:
  /// the rank count of each per-window analysis job.
  WindowedMrcMonitor(core::PardaRuntime& runtime, std::uint64_t bound,
                     std::uint64_t window, double decay, int num_procs = 2);

  /// Feeds one reference; a completed window triggers one pool job.
  void access(Addr a);

  /// Feeds a batch of references; every window completed inside the batch
  /// triggers its pool job at the same point access() would.
  void feed(std::span<const Addr> refs);

  /// Recency-weighted miss ratio at the given cache size (<= bound).
  /// Includes the partially filled current window (analyzed on demand).
  double miss_ratio(std::uint64_t cache_size) const;

  /// The decayed histogram, including the in-progress window.
  Histogram snapshot() const;

  /// The completed-windows aggregate only — no on-demand analysis of the
  /// in-progress window, so unlike snapshot() it cannot throw. The serving
  /// layer reads this when capturing a quarantined tenant's final state
  /// (analyzing its pending window would just re-trip the fault).
  const Histogram& aggregate() const noexcept { return aggregate_; }

  std::uint64_t references_seen() const noexcept { return seen_; }
  std::uint64_t windows_completed() const noexcept { return windows_; }
  /// Window jobs that aborted (fault injection, deadline, watchdog). Each
  /// such window's references were dropped; see roll_window's contract.
  std::uint64_t windows_aborted() const noexcept { return aborted_; }
  std::uint64_t bound() const noexcept { return session_.options().bound; }

  /// The session's analysis options. Mutating them between feeds is
  /// allowed (the serving layer installs per-tenant fault plans and
  /// deadlines here); changing bound/num_procs mid-stream changes how
  /// subsequent windows are analyzed.
  PardaOptions& options() noexcept { return session_.options(); }

  /// References buffered for the in-progress window.
  std::size_t pending_refs() const noexcept { return pending_.size(); }

  /// Resident-state estimate for per-tenant quota accounting: the window
  /// buffer plus the dense aggregate histogram. O(window + bound) because
  /// bounded windows cap finite distances below `bound`.
  std::uint64_t footprint_bytes() const noexcept {
    return static_cast<std::uint64_t>(pending_.capacity()) * sizeof(Addr) +
           static_cast<std::uint64_t>(aggregate_.counts().capacity()) * 8;
  }

 private:
  void roll_window();

  mutable core::AnalysisSession session_;  // snapshot() analyzes pending refs
  std::uint64_t window_;
  double decay_;
  std::vector<Addr> pending_;  // in-progress window's references
  Histogram aggregate_;        // decayed sum of completed windows (scaled)
  std::uint64_t seen_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t aborted_ = 0;
};

}  // namespace parda

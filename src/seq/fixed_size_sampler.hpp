// Spatial-hash address sampling (the SHARDS family, Waldspurger et al.,
// FAST'15): the accuracy-for-speed approximation the paper contrasts with
// (Ding & Zhong [4], Zhong & Chang [19], Schuff et al. [15]), composable
// with the parallel algorithm (Section VII), and the constant-memory
// degradation path for long-running multi-tenant serving (DESIGN.md
// "Serving & isolation model").
//
// An address enters the sample when hash(addr) <= threshold, i.e. with
// probability R = threshold / 2^64. Sampling by *address* (not by
// reference) keeps every reuse pair of a sampled address intact, so the
// scaled distance d/R estimates the true stack distance. An exact Olken
// engine measures the sampled sub-stream. One sampler, two modes:
//
//  - No budget (max_tracked == kUnbounded): fixed-rate sampling. R stays
//    at `rate` and the exact engine is unbounded, so state grows with the
//    sampled footprint. sampled_analysis and sampled_parda_analysis run
//    this mode; rate 1.0 is the exact analysis.
//  - Budget (SHARDS's fixed size): at most `max_tracked` distinct sampled
//    addresses are tracked. When the tracked set would exceed the budget,
//    the address with the LARGEST hash is evicted and the threshold is
//    lowered to exclude it — so R adapts downward to whatever the
//    footprint requires, and state never exceeds the budget. The exact
//    engine is bounded at max_tracked.
//
// Each sample is recorded at the CURRENT rate R (distance d -> d/R, count
// 1 -> round(1/R)), because R changes as the threshold decays — a
// finish-time rescale would misattribute early, high-rate samples. Scaled
// distances at or beyond `distance_cap` land in the infinity bin, exactly
// like a bounded engine, which keeps the dense histogram O(distance_cap)
// instead of O(max_tracked / R).
//
// Approximations, documented for the accuracy bound in DESIGN.md:
//  - Hash-evicted addresses are dropped lazily: they stop being sampled
//    immediately (the threshold excludes them) but their last entry ages
//    out of the bounded engine by LRU instead of being excised, which can
//    inflate a few subsequent distances by at most the number of stale
//    entries (< max_tracked).
//  - Counts are scaled by round(1/R); the miss-RATIO estimator is
//    unbiased up to this rounding because every bin of a window shares
//    the same factor. Without a budget, totals are exact when 1/R is an
//    integer.
//  - SHARDS_adj (budget only): each window is corrected by adding the
//    shortfall between the expected sampled-reference count
//    (window_refs * R) and the actual count to the distance-0 bin
//    (negative shortfalls are clamped to zero — Histogram counts are
//    unsigned). Fixed-rate mode skips it: its rate never moves, so the
//    miss ratio is a plain ratio estimate, and a shortfall there comes
//    from unsampled warm addresses whose reuses are mostly not at
//    distance 0. On a zipf(5000, 0.9) trace at R = 0.1 the correction
//    raised the max miss-ratio error from 0.049 to 0.22.
// With max_tracked ~= 8K the SHARDS paper reports mean absolute MRC error
// under 0.01 on storage traces; the accuracy test here asserts mean
// absolute miss-ratio error < 0.05 on zipf workloads at a 256-entry
// budget.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/parda.hpp"
#include "hash/addr_map.hpp"
#include "hist/histogram.hpp"
#include "seq/analyzer.hpp"
#include "seq/olken.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/types.hpp"

namespace parda {

class FixedSizeSampler {
 public:
  /// max_tracked: budget on distinct sampled addresses, or kUnbounded for
  /// fixed-rate sampling. distance_cap: scaled distances >= cap record as
  /// infinity (0 = no cap; the dense histogram then grows with the sampled
  /// footprint / rate). rate in (0, 1]: the sampling rate — with a budget,
  /// the rate before the first budget eviction.
  explicit FixedSizeSampler(std::size_t max_tracked = kUnbounded,
                            std::uint64_t distance_cap = 0,
                            double rate = 1.0, std::uint64_t seed = 1)
      : max_tracked_(max_tracked),
        distance_cap_(distance_cap),
        seed_(seed),
        initial_threshold_(rate_to_threshold(rate)),
        threshold_(initial_threshold_),
        exact_(max_tracked) {
    PARDA_CHECK(rate > 0.0 && rate <= 1.0);
  }

  // --- ReuseAnalyzer surface -----------------------------------------------
  void process(Addr z) {
    ++references_;
    ++window_references_;
    const std::uint64_t h = hash(z);
    if (h > threshold_) return;
    admit(z, h);
    record_scaled(exact_.access(z), 1);
  }

  void process_block(std::span<const Addr> block) {
    for (Addr z : block) process(z);
  }

  /// Closes the histogram: under a budget, applies the SHARDS_adj
  /// correction for the references seen since the last
  /// take_window_histogram(). Idempotent.
  void finish() {
    if (finished_) return;
    finished_ = true;
    apply_window_adjustment();
  }

  const Histogram& histogram() const noexcept { return hist_; }

  EngineStats stats() const {
    // Structural counters (probes, evictions, footprint) reflect the
    // sampled sub-stream the exact engine ran on; references is the
    // unsampled stream length.
    EngineStats s = exact_.stats();
    s.references = references_;
    s.finite = hist_.finite_total();
    s.infinities = hist_.infinities();
    return s;
  }

  // --- fixed-rate batch surface (no budget) --------------------------------
  /// Counts every reference of `trace` as seen and returns the sampled
  /// sub-trace, for an external exact engine (parda_analyze) to measure;
  /// absorb() then scales that histogram in, and finish() closes it. The
  /// result equals process_block(trace) + finish() bit for bit, because
  /// both share the threshold and the scaling.
  std::vector<Addr> sample(std::span<const Addr> trace) {
    PARDA_CHECK(max_tracked_ == kUnbounded);
    references_ += trace.size();
    window_references_ += trace.size();
    std::vector<Addr> sampled;
    sampled.reserve(static_cast<std::size_t>(
        static_cast<double>(trace.size()) * rate() * 1.2) + 16);
    for (Addr z : trace) {
      if (hash(z) <= threshold_) sampled.push_back(z);
    }
    return sampled;
  }

  /// Scales in, bin by bin, a histogram measured on sample()'s sub-trace.
  void absorb(const Histogram& measured) {
    PARDA_CHECK(max_tracked_ == kUnbounded);
    const auto& counts = measured.counts();
    for (std::size_t d = 0; d < counts.size(); ++d) {
      if (counts[d] == 0) continue;
      record_scaled(static_cast<Distance>(d), counts[d]);
    }
    record_scaled(kInfiniteDistance, measured.infinities());
  }

  // --- windowed serving surface --------------------------------------------
  /// Takes the scaled histogram accumulated since the previous take (with
  /// its SHARDS_adj correction applied) and clears it, KEEPING the
  /// sampling state — the threshold, the tracked set, and the exact
  /// engine's recency stack all persist, so cross-window reuses of
  /// sampled addresses still measure finite. This is the degraded
  /// tenant's window-roll primitive (decayed_fold consumes the result).
  Histogram take_window_histogram() {
    apply_window_adjustment();
    Histogram out = std::move(hist_);
    hist_.clear();
    finished_ = false;
    return out;
  }

  /// Current sampling rate R = P(address is sampled) under the current
  /// threshold; decays as budget evictions lower the threshold.
  double rate() const noexcept {
    return static_cast<double>(threshold_) / 18446744073709551615.0;
  }

  std::size_t tracked() const noexcept { return members_.size(); }
  std::size_t max_tracked() const noexcept { return max_tracked_; }
  std::uint64_t references_seen() const noexcept { return references_; }
  std::uint64_t sampled_references() const noexcept { return sampled_; }
  std::uint64_t budget_evictions() const noexcept { return budget_evictions_; }

  /// Resident-state estimate for quota accounting: the tracked-set table
  /// and eviction heap, the exact engine's stack (its index window and hash
  /// slots), and the dense histogram. O(max_tracked + distance_cap) under a
  /// budget.
  std::uint64_t footprint_bytes() const noexcept {
    return static_cast<std::uint64_t>(members_.capacity()) * 16 +
           static_cast<std::uint64_t>(heap_.size()) * 16 +
           exact_.stack().bytes() +
           static_cast<std::uint64_t>(hist_.counts().capacity()) * 8;
  }

  void reset() {
    threshold_ = initial_threshold_;
    exact_.reset();
    members_.clear();
    heap_ = {};
    hist_.clear();
    references_ = 0;
    sampled_ = 0;
    window_references_ = 0;
    window_sampled_ = 0;
    budget_evictions_ = 0;
    finished_ = false;
  }

 private:
  /// rate * 2^64, saturated: the double product of a rate near 1 can round
  /// up to exactly 2^64, whose uint64 cast would be undefined.
  static std::uint64_t rate_to_threshold(double rate) noexcept {
    const double scaled = rate * 18446744073709551616.0;  // rate * 2^64
    if (scaled >= 18446744073709551616.0) return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(scaled);
  }

  std::uint64_t hash(Addr z) const noexcept {
    return mix64(z ^ (seed_ * 0x9e3779b97f4a7c15ULL));
  }

  /// Tracks z in the sampled set; evicts the max-hash member (lowering
  /// the threshold) when the budget would be exceeded. Without a budget
  /// the threshold never moves, so there is nothing to track.
  void admit(Addr z, std::uint64_t h) {
    if (max_tracked_ == kUnbounded || members_.contains(z)) return;
    members_.insert_or_assign(z, h);
    heap_.emplace(h, z);
    if (members_.size() <= max_tracked_) return;
    const auto [max_hash, victim] = heap_.top();
    heap_.pop();
    members_.erase(victim);
    ++budget_evictions_;
    // Future references hash-compare against the lowered threshold, so
    // the victim (and anything rarer) never re-enters; its stale entry in
    // the bounded engine ages out by LRU (see file comment).
    threshold_ = max_hash == 0 ? 0 : max_hash - 1;
  }

  /// Records n samples at distance d, each weighted round(1/R).
  void record_scaled(Distance d, std::uint64_t n) {
    sampled_ += n;
    window_sampled_ += n;
    const double inv = rate() > 0.0 ? 1.0 / rate() : 1.0;
    const auto count = n * static_cast<std::uint64_t>(
                               std::max<long long>(1, std::llround(inv)));
    if (d == kInfiniteDistance) {
      hist_.record(kInfiniteDistance, count);
      return;
    }
    const auto scaled = static_cast<Distance>(
        std::llround(static_cast<double>(d) * inv));
    if (distance_cap_ != 0 && scaled >= distance_cap_) {
      hist_.record(kInfiniteDistance, count);
    } else {
      hist_.record(scaled, count);
    }
  }

  /// SHARDS_adj for the current window: the expected sampled count under
  /// the current rate minus the actual count, added (scaled) to the
  /// distance-0 bin. Clamped at zero on the short side. Budget only (see
  /// file comment).
  void apply_window_adjustment() {
    const double r = rate();
    if (max_tracked_ != kUnbounded && r > 0.0 && r < 1.0) {
      const auto expected = static_cast<std::int64_t>(
          std::llround(static_cast<double>(window_references_) * r));
      const std::int64_t diff =
          expected - static_cast<std::int64_t>(window_sampled_);
      if (diff > 0) {
        const auto count = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(diff) / r));
        hist_.record(0, count);
      }
    }
    window_references_ = 0;
    window_sampled_ = 0;
  }

  std::size_t max_tracked_;
  std::uint64_t distance_cap_;
  std::uint64_t seed_;
  std::uint64_t initial_threshold_;
  std::uint64_t threshold_;
  OlkenAnalyzer exact_;  // runs on the sampled sub-stream
  AddrMap members_;      // sampled addr -> its hash (budget only)
  // Max-heap over (hash, addr): the eviction order. Every member is
  // pushed exactly once (admit() dedups), so no lazy deletion is needed.
  std::priority_queue<std::pair<std::uint64_t, Addr>> heap_;
  Histogram hist_;  // scaled; cumulative since the last window take
  std::uint64_t references_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t window_references_ = 0;
  std::uint64_t window_sampled_ = 0;
  std::uint64_t budget_evictions_ = 0;
  bool finished_ = false;
};

static_assert(ReuseAnalyzer<FixedSizeSampler>);
static_assert(BlockReuseAnalyzer<FixedSizeSampler>);

/// Sequential fixed-rate sampled analysis: exact Olken on the sampled
/// addresses, scaled back. rate in (0, 1]; rate == 1 is the exact analysis.
inline Histogram sampled_analysis(std::span<const Addr> trace, double rate,
                                  std::uint64_t seed = 1) {
  FixedSizeSampler sampler(kUnbounded, /*distance_cap=*/0, rate, seed);
  return analyze_trace(sampler, trace);
}

/// Sampling composed with the parallel algorithm (Section VII: "our
/// algorithm can be combined with approximate analysis techniques"): the
/// sampler picks the sub-trace, parda_analyze measures it exactly, and the
/// sampler scales the result back — equal to sampled_analysis.
inline Histogram sampled_parda_analysis(std::span<const Addr> trace,
                                        double rate,
                                        const PardaOptions& options,
                                        std::uint64_t seed = 1) {
  FixedSizeSampler sampler(kUnbounded, /*distance_cap=*/0, rate, seed);
  sampler.absorb(parda_analyze(sampler.sample(trace), options).hist);
  sampler.finish();
  return sampler.histogram();
}

}  // namespace parda

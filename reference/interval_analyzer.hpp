// The interval-based sequential algorithm of Almási, Caşcaval & Padua
// (paper reference [1], "Calculating stack distances efficiently").
//
// Instead of a tree of live last-access timestamps, track the *holes* —
// timestamps whose address was re-referenced later. The reuse distance of
// a reference whose previous access was at t0 is then
//
//   d = (now - 1 - t0) - holes_in(t0+1, now-1)
//
// i.e. all intervening timestamps minus the dead ones. Holes coalesce
// into few intervals when reuse is local, making the structure compact.
#pragma once

#include <span>

#include "hash/addr_map.hpp"
#include "hist/histogram.hpp"
#include "reference/interval_set.hpp"
#include "seq/analyzer.hpp"
#include "util/types.hpp"

namespace parda {

class IntervalAnalyzer {
 public:
  /// Processes one reference; returns its reuse distance. Kept
  /// out-of-line: the hole-walk in count_in dominates (microseconds per
  /// call on large footprints), so inlining buys nothing, and one shared
  /// copy keeps the per-reference and batched paths on identical code.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  Distance access(Addr z) {
    Distance d = kInfiniteDistance;
    const Timestamp now = now_;
    if (const Timestamp* last = table_.find(z)) {
      const Timestamp t0 = *last;
      const std::uint64_t intervening = now - 1 - t0;
      d = intervening - holes_.count_in(t0 + 1, now - 1);
      holes_.insert(t0);  // t0 is dead from here on
    }
    table_.insert_or_assign(z, now);
    ++now_;
    return d;
  }

  // --- ReuseAnalyzer surface -----------------------------------------------
  void process(Addr z) { hist_.record(access(z)); }

  /// Batched processing: identical tallies to per-reference process(),
  /// with the last-access probe for a few references ahead prefetched.
  void process_block(std::span<const Addr> block) {
    constexpr std::size_t kAhead = 8;
    const std::size_t n = block.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) table_.prefetch(block[i + kAhead]);
      hist_.record(access(block[i]));
    }
  }

  void finish() {}
  const Histogram& histogram() const noexcept { return hist_; }
  EngineStats stats() const {
    EngineStats s;
    s.references = now_;
    s.finite = hist_.finite_total();
    s.infinities = hist_.infinities();
    s.hash_probes = table_.probe_count();
    s.peak_footprint = footprint();
    return s;
  }

  std::size_t footprint() const noexcept {
    return static_cast<std::size_t>(now_ - holes_.size());
  }
  /// The compression measure: holes per interval (paper [1]'s win).
  std::size_t hole_intervals() const noexcept {
    return holes_.interval_count();
  }

 private:
  AddrMap table_;
  IntervalSet holes_;
  Histogram hist_;
  Timestamp now_ = 0;
};

static_assert(ReuseAnalyzer<IntervalAnalyzer>);
static_assert(BlockReuseAnalyzer<IntervalAnalyzer>);

/// Whole-trace analysis with the interval engine.
inline Histogram interval_analysis(std::span<const Addr> trace) {
  IntervalAnalyzer analyzer;
  return analyze_trace(analyzer, trace);
}

}  // namespace parda

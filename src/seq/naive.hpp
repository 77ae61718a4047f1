// The naive list-based stack algorithm of Mattson et al. (paper Section
// III-A): an explicit LRU stack searched linearly from the head. O(N * M)
// time; kept as the reference baseline and for the Olken81-vs-naive bench.
#pragma once

#include <span>
#include <vector>

#include "hist/histogram.hpp"
#include "seq/analyzer.hpp"
#include "util/types.hpp"

namespace parda {

class NaiveStackAnalyzer {
 public:
  /// Processes one reference; returns its reuse distance.
  Distance access(Addr z);

  // --- ReuseAnalyzer surface -----------------------------------------------
  void process(Addr z) { hist_.record(access(z)); }
  void finish() {}
  const Histogram& histogram() const noexcept { return hist_; }
  EngineStats stats() const {
    EngineStats s;
    s.references = refs_;
    s.finite = hist_.finite_total();
    s.infinities = hist_.infinities();
    s.peak_footprint = peak_;
    return s;
  }

  std::size_t footprint() const noexcept { return stack_.size(); }
  void reset() {
    stack_.clear();
    hist_.clear();
    refs_ = 0;
    peak_ = 0;
  }

 private:
  // stack_[0] is the top (most recently used).
  std::vector<Addr> stack_;
  Histogram hist_;
  std::uint64_t refs_ = 0;
  std::size_t peak_ = 0;
};

static_assert(ReuseAnalyzer<NaiveStackAnalyzer>);

/// Runs the naive algorithm over a whole trace.
Histogram naive_stack_analysis(std::span<const Addr> trace);

}  // namespace parda

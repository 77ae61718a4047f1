// The naive list-based stack algorithm of Mattson et al. (paper Section
// III-A): an explicit LRU stack searched linearly from the head. O(N * M)
// time; kept as the oracle that shares no code with the Olken stack, and
// for the Olken81-vs-naive bench.
//
// With a bound B (kUnbounded = none) the stack keeps only its top B
// entries, the LRU cache of size B: the entries above depth B are the
// unbounded stack's, so every distance below B is exact and every other
// reference is an infinity — the unbounded histogram folded at B, in
// O(N * B) time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hist/histogram.hpp"
#include "seq/analyzer.hpp"
#include "util/types.hpp"

namespace parda {

class NaiveStackAnalyzer {
 public:
  explicit NaiveStackAnalyzer(std::uint64_t bound = kUnbounded)
      : bound_(bound) {}

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

 private:
  std::uint64_t bound_;
  // stack_[0] is the top (most recently used).
  std::vector<Addr> stack_;
  Histogram hist_;
  std::uint64_t refs_ = 0;
  std::size_t peak_ = 0;
};

static_assert(ReuseAnalyzer<NaiveStackAnalyzer>);

/// Runs the naive algorithm over a whole trace, folded at `bound`.
Histogram naive_stack_analysis(std::span<const Addr> trace,
                               std::uint64_t bound = kUnbounded);

}  // namespace parda

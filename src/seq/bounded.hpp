// Sequential bounded reuse distance analysis: the cache bound of paper
// Section V (Algorithm 7) without the parallel local-infinity plumbing.
// The engine is OlkenAnalyzer(bound) (seq/olken.hpp), which keeps the B
// most recently referenced distinct addresses and evicts LRU; this is the
// oracle the bounded parallel histogram must equal bit for bit.
#pragma once

#include <cstdint>
#include <span>

#include "hist/histogram.hpp"
#include "seq/analyzer.hpp"
#include "seq/olken.hpp"
#include "util/types.hpp"

namespace parda {

/// Exact below `bound`, infinity at or above it; bound == kUnbounded is
/// plain Algorithm 1.
inline Histogram bounded_analysis(std::span<const Addr> trace,
                                  std::uint64_t bound) {
  OlkenAnalyzer analyzer(bound);
  return analyze_trace(analyzer, trace);
}

}  // namespace parda

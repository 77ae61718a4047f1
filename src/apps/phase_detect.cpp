#include "apps/phase_detect.hpp"

#include <algorithm>
#include <cmath>

#include "hist/histogram.hpp"
#include "seq/olken.hpp"

namespace parda {

double signature_distance(std::span<const double> a,
                          std::span<const double> b) noexcept {
  const std::size_t n = std::max(a.size(), b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = i < a.size() ? a[i] : 0.0;
    const double y = i < b.size() ? b[i] : 0.0;
    acc += std::abs(x - y);
  }
  return acc;
}

PhaseReport detect_phases(std::span<const Addr> trace,
                          const PhaseDetectOptions& options) {
  PhaseReport report;
  if (trace.empty() || options.window == 0) return report;

  // One continuous analyzer across the trace (so window signatures reflect
  // cross-window reuse), histogram snapshot per window.
  OlkenAnalyzer analyzer;
  for (std::size_t start = 0; start < trace.size();
       start += options.window) {
    const std::size_t end = std::min(start + options.window, trace.size());
    Histogram window_hist;
    for (std::size_t i = start; i < end; ++i) {
      window_hist.record(analyzer.access(trace[i]));
    }
    // Signature: normalized log2 buckets with the infinity mass appended.
    std::vector<std::uint64_t> buckets = window_hist.log2_buckets();
    std::vector<double> sig(buckets.size() + 1, 0.0);
    const auto total = static_cast<double>(window_hist.total());
    if (total > 0) {
      for (std::size_t i = 0; i < buckets.size(); ++i) {
        sig[i] = static_cast<double>(buckets[i]) / total;
      }
      sig.back() =
          static_cast<double>(window_hist.infinities()) / total;
    }
    report.signatures.push_back(std::move(sig));
  }

  for (std::size_t w = 1; w < report.signatures.size(); ++w) {
    const double d =
        signature_distance(report.signatures[w - 1], report.signatures[w]);
    if (d > options.threshold) {
      report.boundaries.push_back(PhaseBoundary{w * options.window, d});
    }
  }
  return report;
}

}  // namespace parda

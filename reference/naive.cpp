#include "reference/naive.hpp"

namespace parda {

Distance NaiveStackAnalyzer::access(Addr z) {
  ++refs_;
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    if (stack_[i] == z) {
      // Move to front; the reuse distance is the number of distinct
      // addresses above the old position, which is exactly its index.
      stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(i));
      stack_.insert(stack_.begin(), z);
      return static_cast<Distance>(i);
    }
  }
  if (bound_ != kUnbounded && stack_.size() == bound_) stack_.pop_back();
  stack_.insert(stack_.begin(), z);
  if (stack_.size() > peak_) peak_ = stack_.size();
  return kInfiniteDistance;
}

Histogram naive_stack_analysis(std::span<const Addr> trace,
                               std::uint64_t bound) {
  NaiveStackAnalyzer analyzer(bound);
  return analyze_trace(analyzer, trace);
}

}  // namespace parda

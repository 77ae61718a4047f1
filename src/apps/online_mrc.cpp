#include "apps/online_mrc.hpp"

#include <algorithm>
#include <cmath>

#include "hist/mrc.hpp"
#include "util/check.hpp"

namespace parda {

void decayed_fold(Histogram& aggregate, const Histogram& window,
                  double decay) {
  if (decay == 1.0) {
    aggregate.merge(window);
    return;
  }
  Histogram next;
  const auto& counts = aggregate.counts();
  for (std::size_t d = 0; d < counts.size(); ++d) {
    if (counts[d] == 0) continue;
    const auto scaled = static_cast<std::uint64_t>(
        std::llround(decay * static_cast<double>(counts[d])));
    next.record(static_cast<Distance>(d), scaled);
  }
  next.record(kInfiniteDistance,
              static_cast<std::uint64_t>(std::llround(
                  decay * static_cast<double>(aggregate.infinities()))));
  next.merge(window);
  aggregate = std::move(next);
}

WindowedMrcMonitor::WindowedMrcMonitor(core::PardaRuntime& runtime,
                                       std::uint64_t bound,
                                       std::uint64_t window, double decay,
                                       int num_procs)
    : session_(runtime.session()), window_(window), decay_(decay) {
  PARDA_CHECK(bound >= 1);
  PARDA_CHECK(window >= 1);
  PARDA_CHECK(decay > 0.0 && decay <= 1.0);
  PARDA_CHECK(num_procs >= 1);
  session_.options().num_procs = num_procs;
  session_.options().bound = bound;
  pending_.reserve(window);
}

void WindowedMrcMonitor::access(Addr a) {
  pending_.push_back(a);
  ++seen_;
  if (pending_.size() == window_) roll_window();
}

void WindowedMrcMonitor::feed(std::span<const Addr> refs) {
  while (!refs.empty()) {
    const std::size_t take =
        std::min(refs.size(), static_cast<std::size_t>(window_) -
                                  pending_.size());
    pending_.insert(pending_.end(), refs.begin(), refs.begin() + take);
    seen_ += take;
    refs = refs.subspan(take);
    if (pending_.size() == window_) roll_window();
  }
}

void WindowedMrcMonitor::roll_window() {
  // Abort safety: a failed window job (injected fault, deadline, watchdog
  // abort) drops THIS window's references and rethrows, leaving the
  // monitor usable — the buffer must not stay full, or the next feed()
  // would take zero references per iteration and spin forever.
  Histogram window_hist;
  try {
    window_hist = session_.analyze(pending_).hist;
  } catch (...) {
    pending_.clear();
    ++aborted_;
    throw;
  }
  decayed_fold(aggregate_, window_hist, decay_);
  pending_.clear();
  ++windows_;
}

Histogram WindowedMrcMonitor::snapshot() const {
  Histogram combined = aggregate_;
  if (!pending_.empty()) {
    combined.merge(session_.analyze(pending_).hist);
  }
  return combined;
}

double WindowedMrcMonitor::miss_ratio(std::uint64_t cache_size) const {
  const Histogram combined = snapshot();
  return parda::miss_ratio(combined, cache_size);
}

}  // namespace parda

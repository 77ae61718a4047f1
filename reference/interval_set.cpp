#include "reference/interval_set.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace parda {

std::size_t IntervalSet::find_slot(std::uint64_t point) const noexcept {
  // First interval whose hi >= point.
  std::size_t lo = 0;
  std::size_t hi = intervals_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (intervals_[mid].hi < point) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool IntervalSet::contains(std::uint64_t point) const noexcept {
  const std::size_t i = find_slot(point);
  return i < intervals_.size() && intervals_[i].lo <= point;
}

void IntervalSet::insert(std::uint64_t point) {
  PARDA_DCHECK(!contains(point));
  const std::size_t i = find_slot(point);
  const bool joins_right =
      i < intervals_.size() && intervals_[i].lo == point + 1;
  const bool joins_left = i > 0 && intervals_[i - 1].hi + 1 == point;

  if (joins_left && joins_right) {
    // Bridge two intervals into one.
    intervals_[i - 1].hi = intervals_[i].hi;
    intervals_.erase(intervals_.begin() + static_cast<std::ptrdiff_t>(i));
    rebuild_prefix_from(i - 1);
  } else if (joins_left) {
    intervals_[i - 1].hi = point;
    rebuild_prefix_from(i);
  } else if (joins_right) {
    intervals_[i].lo = point;
    rebuild_prefix_from(i + 1);
  } else {
    intervals_.insert(intervals_.begin() + static_cast<std::ptrdiff_t>(i),
                      Interval{point, point});
    // Rebuild from i, not i+1: when the singleton is appended at the end
    // the prefix vector grows by one value-initialized slot whose correct
    // value must be computed here.
    rebuild_prefix_from(i);
  }
  ++total_;
}

void IntervalSet::rebuild_prefix_from(std::size_t index) {
  // prefix_[i] counts the points held by intervals_[0..i).
  prefix_.resize(intervals_.size());
  for (std::size_t i = index; i < intervals_.size(); ++i) {
    if (i == 0) {
      prefix_[0] = 0;
    } else {
      prefix_[i] = prefix_[i - 1] +
                   (intervals_[i - 1].hi - intervals_[i - 1].lo + 1);
    }
  }
}

std::uint64_t IntervalSet::count_in(std::uint64_t lo,
                                    std::uint64_t hi) const noexcept {
  if (lo > hi || intervals_.empty()) return 0;
  // count_below(x): points strictly below x.
  const auto count_below = [&](std::uint64_t x) -> std::uint64_t {
    const std::size_t i = find_slot(x);  // first interval with hi >= x
    if (i == intervals_.size()) return total_;
    std::uint64_t below = prefix_[i];
    if (intervals_[i].lo < x) below += x - intervals_[i].lo;
    return below;
  };
  const std::uint64_t upto_hi =
      hi == ~0ULL ? total_ : count_below(hi + 1);
  return upto_hi - count_below(lo);
}

bool IntervalSet::validate() const {
  if (prefix_.size() != intervals_.size()) return false;
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    const Interval& iv = intervals_[i];
    if (iv.lo > iv.hi) return false;
    if (i > 0) {
      // Sorted, disjoint, and maximally merged (gap of at least one).
      if (intervals_[i - 1].hi + 1 >= iv.lo) return false;
    }
    if (prefix_[i] != running) return false;
    running += iv.hi - iv.lo + 1;
  }
  return running == total_;
}

}  // namespace parda

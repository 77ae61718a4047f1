// IntervalSet: a set of integer points stored as sorted, disjoint, merged
// intervals with prefix counts — the "hole" bookkeeping behind the
// interval-based reuse distance algorithm of Almási, Caşcaval & Padua
// (paper reference [1]).
//
// Points are inserted once each (timestamps of dead last-accesses) and
// queried by range count. When reuse is local, consecutive holes coalesce
// and the interval count stays far below the point count, which is the
// algorithm's compression insight; the worst case degrades to O(k) per
// insert for k intervals.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace parda {

class IntervalSet {
 public:
  struct Interval {
    std::uint64_t lo;
    std::uint64_t hi;  // inclusive

    friend bool operator==(const Interval&, const Interval&) = default;
  };

  /// Inserts a point; must not already be present.
  void insert(std::uint64_t point);

  /// True iff the point is in the set.
  bool contains(std::uint64_t point) const noexcept;

  /// Number of points in [lo, hi]; 0 for an empty range (lo > hi).
  std::uint64_t count_in(std::uint64_t lo, std::uint64_t hi) const noexcept;

  /// Total points.
  std::uint64_t size() const noexcept { return total_; }

  /// Number of stored intervals (the compression measure).
  std::size_t interval_count() const noexcept { return intervals_.size(); }

  const std::vector<Interval>& intervals() const noexcept {
    return intervals_;
  }

  /// Checks ordering, disjointness, merging, and prefix sums.
  bool validate() const;

 private:
  /// Index of the first interval with hi >= point (search anchor).
  std::size_t find_slot(std::uint64_t point) const noexcept;
  void rebuild_prefix_from(std::size_t index);

  std::vector<Interval> intervals_;  // sorted by lo, disjoint, maximal
  std::vector<std::uint64_t> prefix_;  // points in intervals_[0..i-1]
  std::uint64_t total_ = 0;
};

}  // namespace parda

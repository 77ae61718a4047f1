// The reuse distance histogram: the output of every analysis engine.
//
// Finite distances are stored densely (distance -> count); first references
// (compulsory misses) are tallied in a separate infinity bin, matching the
// paper's hist[] + hist[inf] layout. Histograms are mergeable (the MPI
// reduce_sum of Algorithm 3) and serializable for the comm runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace parda {

/// from_json rejects a finite distance at or above 2^28: beyond the
/// footprint of any trace analyzed here, below record's 2^48 guard, and the
/// dense counts vector for a distance just under it (2 GiB) fits in memory.
inline constexpr Distance kMaxJsonDistance = Distance{1} << 28;

class Histogram {
 public:
  Histogram() = default;

  /// Tallies one reference with the given distance (may be
  /// kInfiniteDistance).
  void record(Distance d) { record(d, 1); }
  void record(Distance d, std::uint64_t count);

  std::uint64_t at(Distance d) const noexcept;
  std::uint64_t infinities() const noexcept { return infinities_; }

  /// Total references tallied, including infinities.
  std::uint64_t total() const noexcept { return total_; }
  /// Total references with finite distance.
  std::uint64_t finite_total() const noexcept { return total_ - infinities_; }

  /// Largest finite distance recorded; 0 if none.
  Distance max_distance() const noexcept;

  /// Number of references with distance strictly below d (d finite).
  /// With a fully associative LRU cache of size C, hits == hits_below(C).
  std::uint64_t hits_below(Distance d) const noexcept;

  /// Element-wise sum; the reduce_sum of Algorithm 3.
  void merge(const Histogram& other);

  void clear() noexcept;

  bool operator==(const Histogram& other) const noexcept;

  /// Dense counts, index == distance. May carry trailing zeros.
  const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }

  /// log2-bucketed view: bucket 0 holds d == 0, bucket i >= 1 holds
  /// d in [2^(i-1), 2^i). Infinities are excluded.
  std::vector<std::uint64_t> log2_buckets() const;

  /// Mean of the finite distances (0 if none).
  double mean_finite_distance() const noexcept;

  /// Smallest distance d such that at least fraction p (in [0,1]) of the
  /// *finite* references have distance <= d; 0 if no finite references.
  Distance finite_distance_percentile(double p) const noexcept;

  /// Flat serialization: [infinities, total, n, counts[0..n)]. `spare`
  /// reserves room for that many more words, so a caller can append a
  /// trailer without a second allocation; it never changes the words.
  std::vector<std::uint64_t> to_words(std::size_t spare = 0) const;
  /// Inverse of to_words(). The words may come from another process, so
  /// this throws CheckError when their length disagrees with n, when the
  /// counts sum past 64 bits, or when total is not infinities plus the
  /// counts.
  static Histogram from_words(std::span<const std::uint64_t> words);

  /// JSON serialization ("parda.histogram.v1"): sparse finite counts as
  /// [[distance, count], ...] plus the infinity bin and totals. This is
  /// THE interchange format — the metrics snapshot and hist/report tooling
  /// both use it; the CSV emitters remain for plotting only.
  std::string to_json() const;
  /// Inverse of to_json(). Throws json::JsonError on malformed input, a
  /// schema/total mismatch, a finite distance at or above
  /// kMaxJsonDistance (kInfiniteDistance included), or counts whose sum
  /// overflows the 64-bit total.
  static Histogram from_json(std::string_view text);

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t infinities_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace parda

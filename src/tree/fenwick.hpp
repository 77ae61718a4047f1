// Fenwick (binary indexed) trees: FenwickTree over trace positions is the
// substrate for the Bennett & Kruskal reuse distance algorithm (paper
// reference [2]); FenwickIndex builds the OrderStatTree of Parda's ranks on
// the same tree over a sliding window of dense keys.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "tree/order_stat_tree.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace parda {

/// Prefix sums over positions 0..size-1, each node holding a Count.
template <typename Count = std::int64_t>
class FenwickTree {
 public:
  explicit FenwickTree(std::size_t size = 0) : bits_(size + 1, 0) {}

  std::size_t size() const noexcept { return bits_.size() - 1; }

  /// Adds delta at position i (0-based).
  void add(std::size_t i, Count delta) {
    PARDA_DCHECK(i < size());
    for (std::size_t k = i + 1; k < bits_.size(); k += k & (~k + 1)) {
      bits_[k] += delta;
    }
  }

  /// Sum of positions [0, i] (0-based, inclusive).
  std::int64_t prefix_sum(std::size_t i) const {
    PARDA_DCHECK(i < size());
    std::int64_t sum = 0;
    for (std::size_t k = i + 1; k > 0; k -= k & (~k + 1)) {
      sum += bits_[k];
    }
    return sum;
  }

  /// Sum of positions [lo, hi] inclusive; 0 for an empty range.
  std::int64_t range_sum(std::size_t lo, std::size_t hi) const {
    if (lo > hi) return 0;
    return prefix_sum(hi) - (lo == 0 ? 0 : prefix_sum(lo - 1));
  }

  /// Total sum.
  std::int64_t total() const {
    return size() == 0 ? 0 : prefix_sum(size() - 1);
  }

  /// Rebuilds the tree with values[i] at position i in O(n): each node
  /// folds its finished sum into its parent once, instead of n O(log n)
  /// adds.
  template <typename Value>
  void assign(std::span<const Value> values) {
    bits_.assign(values.size() + 1, 0);
    for (std::size_t k = 1; k < bits_.size(); ++k) {
      bits_[k] += static_cast<Count>(values[k - 1]);
      const std::size_t parent = k + (k & (~k + 1));
      if (parent < bits_.size()) bits_[parent] += bits_[k];
    }
  }

  void clear() { std::fill(bits_.begin(), bits_.end(), 0); }

  std::uint64_t bytes() const noexcept {
    return bits_.capacity() * sizeof(Count);
  }

 private:
  std::vector<Count> bits_;
};

/// The OrderStatTree of Parda's ranks: a FenwickTree of live flags over a
/// window of consecutive keys, with a key -> address array beside it, so
/// count_greater is a prefix sum over flat arrays instead of a walk through
/// pointer nodes.
///
/// Keys must be dense. Space is linear in the window, which spans from the
/// oldest live key to the newest, so keyed by global trace position this
/// would be Bennett & Kruskal's O(N) structure. Keyed by OlkenStack's
/// clock, which renumbers the live entries before the dead keys outgrow
/// them, it stays within a constant factor of the live entries plus a
/// slack. A key above the
/// window slides it up past the dead keys below the oldest entry; a key
/// below it (Parda's phase holder importing older state) moves the window
/// down. Both rebuild the tree in linear time, and the window at least
/// doubles the span it must cover, so the moves cost O(1) amortized per
/// key. pop_oldest reads a cursor that only moves up as entries die, except
/// when an insert lands below it.
class FenwickIndex {
 public:
  void insert(Timestamp key, Addr addr) {
    if (size_ == 0) {
      base_ = key;
      oldest_ = top_ = 0;
    }
    if (key < base_ || key - base_ >= addr_.size()) regrow(key);
    const std::size_t slot = static_cast<std::size_t>(key - base_);
    PARDA_DCHECK(live_[slot] == 0);
    live_[slot] = 1;
    addr_[slot] = addr;
    counts_.add(slot, 1);
    if (slot < oldest_) oldest_ = slot;
    if (slot >= top_) top_ = slot + 1;
    ++size_;
  }

  bool erase(Timestamp key) {
    if (key < base_ || key - base_ >= top_) return false;
    const std::size_t slot = static_cast<std::size_t>(key - base_);
    if (live_[slot] == 0) return false;
    remove(slot);
    return true;
  }

  std::uint64_t count_greater(Timestamp key) const {
    if (key < base_) return size_;
    if (key - base_ >= top_) return 0;
    return size_ - static_cast<std::uint64_t>(counts_.prefix_sum(
                       static_cast<std::size_t>(key - base_)));
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  TreeEntry oldest() const {
    PARDA_CHECK(size_ > 0);
    return TreeEntry{base_ + oldest_, addr_[oldest_]};
  }

  TreeEntry pop_oldest() {
    const TreeEntry entry = oldest();
    remove(oldest_);
    return entry;
  }

  void clear() {
    std::fill(live_.begin(), live_.begin() + static_cast<std::ptrdiff_t>(top_),
              std::uint8_t{0});
    counts_.clear();
    size_ = oldest_ = top_ = 0;
  }

  /// Bytes in the window's arrays.
  std::uint64_t bytes() const noexcept {
    return addr_.capacity() * sizeof(Addr) + live_.capacity() +
           counts_.bytes();
  }

  /// Ascending-key traversal; fn(TreeEntry).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t slot = oldest_; slot < top_; ++slot) {
      if (live_[slot] != 0) fn(TreeEntry{base_ + slot, addr_[slot]});
    }
  }

  /// Checks the counts against the live flags and the cursor and top
  /// against the live range.
  bool validate() const {
    std::uint64_t live = 0;
    for (std::size_t slot = 0; slot < live_.size(); ++slot) {
      if (live_[slot] == 0) continue;
      if (slot < oldest_ || slot >= top_) return false;
      ++live;
    }
    if (live != size_) return false;
    if (size_ > 0 && live_[oldest_] == 0) return false;
    std::int64_t running = 0;
    for (std::size_t slot = 0; slot < live_.size(); ++slot) {
      running += live_[slot];
      if (counts_.prefix_sum(slot) != running) return false;
    }
    return true;
  }

 private:
  static constexpr std::size_t kMinWindow = 1024;

  void remove(std::size_t slot) {
    live_[slot] = 0;
    counts_.add(slot, -1);
    if (--size_ == 0) {
      oldest_ = top_ = 0;
      return;
    }
    while (live_[oldest_] == 0) ++oldest_;
  }

  /// Moves the window so that it covers `key` and every live entry, with
  /// the oldest of them at slot 0, and rebuilds the counts.
  void regrow(Timestamp key) {
    const Timestamp lo = size_ == 0 ? key : std::min(key, base_ + oldest_);
    const Timestamp hi = size_ == 0 ? key + 1 : std::max(key + 1, base_ + top_);
    const std::size_t window = std::max<std::size_t>(
        {addr_.size(), 2 * static_cast<std::size_t>(hi - lo), kMinWindow});
    std::vector<Addr> addr(window);
    std::vector<std::uint8_t> live(window, 0);
    if (size_ > 0) {
      const auto shift = static_cast<std::size_t>(base_ + oldest_ - lo);
      std::copy(addr_.begin() + static_cast<std::ptrdiff_t>(oldest_),
                addr_.begin() + static_cast<std::ptrdiff_t>(top_),
                addr.begin() + static_cast<std::ptrdiff_t>(shift));
      std::copy(live_.begin() + static_cast<std::ptrdiff_t>(oldest_),
                live_.begin() + static_cast<std::ptrdiff_t>(top_),
                live.begin() + static_cast<std::ptrdiff_t>(shift));
      top_ = shift + (top_ - oldest_);
      oldest_ = shift;
    }
    addr_ = std::move(addr);
    live_ = std::move(live);
    counts_.assign(std::span<const std::uint8_t>(live_));
    base_ = lo;
  }

  FenwickTree<std::int32_t> counts_;  // live entries per slot
  std::vector<Addr> addr_;            // slot -> address
  std::vector<std::uint8_t> live_;    // slot -> 1 if its key is live
  Timestamp base_ = 0;                // key of slot 0
  std::size_t oldest_ = 0;            // slot of the oldest live key
  std::size_t top_ = 0;               // no live slot at or above it
  std::size_t size_ = 0;
};

static_assert(OrderStatTree<FenwickIndex>);

}  // namespace parda

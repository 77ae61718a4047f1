// VectorTree: a sorted-vector "tree", the correctness oracle of the tree
// tests (the list-based baseline of Mattson et al. [12]). Lookups are
// O(log n); insert/erase are O(n) memmoves.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tree/order_stat_tree.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace parda {

class VectorTree {
 public:
  void insert(Timestamp ts, Addr addr) {
    const auto it = lower(ts);
    PARDA_CHECK(it == entries_.end() || it->ts != ts);
    entries_.insert(it, TreeEntry{ts, addr});
  }

  bool erase(Timestamp ts) {
    const auto it = lower(ts);
    if (it == entries_.end() || it->ts != ts) return false;
    entries_.erase(it);
    return true;
  }

  std::uint64_t count_greater(Timestamp ts) const {
    const auto it = std::upper_bound(
        entries_.begin(), entries_.end(), ts,
        [](Timestamp t, const TreeEntry& e) { return t < e.ts; });
    return static_cast<std::uint64_t>(entries_.end() - it);
  }

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  TreeEntry oldest() const {
    PARDA_CHECK(!entries_.empty());
    return entries_.front();
  }

  TreeEntry pop_oldest() {
    const TreeEntry entry = oldest();
    entries_.erase(entries_.begin());
    return entry;
  }

  void clear() noexcept { entries_.clear(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const TreeEntry& e : entries_) fn(e);
  }

  bool validate() const {
    return std::is_sorted(
        entries_.begin(), entries_.end(),
        [](const TreeEntry& a, const TreeEntry& b) { return a.ts < b.ts; });
  }

 private:
  std::vector<TreeEntry>::iterator lower(Timestamp ts) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), ts,
        [](const TreeEntry& e, Timestamp t) { return e.ts < t; });
  }

  std::vector<TreeEntry> entries_;  // ascending by ts
};

static_assert(OrderStatTree<VectorTree>);

}  // namespace parda

// Treap order-statistic engine: randomized balance via deterministic
// per-timestamp priorities (mix64 of the key), implemented with split/merge.
// Included as a third independent engine for cross-checking and for the
// tree-engine ablation bench (DESIGN.md A1).
#pragma once

#include <cstdint>
#include <vector>

#include "tree/order_stat_tree.hpp"
#include "util/types.hpp"

namespace parda {

class Treap {
 public:
  Treap() = default;

  void insert(Timestamp ts, Addr addr);
  bool erase(Timestamp ts);
  std::uint64_t count_greater(Timestamp ts) const noexcept;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  TreeEntry oldest() const;
  TreeEntry pop_oldest();

  void clear() noexcept;

  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::vector<std::uint32_t> stack;
    std::uint32_t cur = root_;
    while (cur != kNull || !stack.empty()) {
      while (cur != kNull) {
        stack.push_back(cur);
        cur = nodes_[cur].left;
      }
      cur = stack.back();
      stack.pop_back();
      fn(TreeEntry{nodes_[cur].ts, nodes_[cur].addr});
      cur = nodes_[cur].right;
    }
  }

  bool validate() const;

 private:
  static constexpr std::uint32_t kNull = 0xFFFFFFFFu;

  struct Node {
    Timestamp ts;
    Addr addr;
    std::uint64_t priority;
    std::uint32_t left;
    std::uint32_t right;
    std::uint64_t weight;
  };

  std::uint32_t alloc_node(Timestamp ts, Addr addr);
  std::uint64_t weight_of(std::uint32_t n) const noexcept {
    return n == kNull ? 0 : nodes_[n].weight;
  }
  void update(std::uint32_t n) noexcept;
  /// Splits into (< ts) and (>= ts).
  void split(std::uint32_t n, Timestamp ts, std::uint32_t& lo,
             std::uint32_t& hi);
  std::uint32_t merge(std::uint32_t lo, std::uint32_t hi);
  bool validate_impl(std::uint32_t n) const;

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_list_;
  std::uint32_t root_ = kNull;
  std::size_t size_ = 0;
};

static_assert(OrderStatTree<Treap>);

}  // namespace parda

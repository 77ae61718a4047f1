// Splay-tree order-statistic engine — the paper's core analysis structure
// (Sleator & Tarjan [17], as used by Sugumar & Abraham [18] and the original
// Parda implementation). The library's engines run on OlkenStack's
// FenwickIndex instead; tree_olken_analysis (tree_olken.hpp) runs
// olken_step over this tree to time the paper's configuration.
//
// Nodes live in a contiguous pool addressed by 32-bit indices with a free
// list, so steady-state analysis performs no heap allocation per reference.
// Every successful lookup splays the accessed node to the root, which gives
// the working-set theorem behaviour that makes splay trees well suited to
// reuse distance analysis: recently referenced timestamps are near the root.
#pragma once

#include <cstdint>
#include <vector>

#include "tree/order_stat_tree.hpp"
#include "util/types.hpp"

namespace parda {

class SplayTree {
 public:
  SplayTree() = default;

  void insert(Timestamp ts, Addr addr);
  bool erase(Timestamp ts);
  std::uint64_t count_greater(Timestamp ts);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  TreeEntry oldest() const;
  TreeEntry pop_oldest();

  void clear() noexcept;

  /// In-order (ascending timestamp) traversal; fn(TreeEntry). Allocation-
  /// free: walks parent links (in-order successor) instead of keeping an
  /// explicit stack — this runs in every merge round, so a per-call vector
  /// would churn the heap np times per phase.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (root_ == kNull) return;
    std::uint32_t cur = leftmost(root_);
    while (cur != kNull) {
      fn(TreeEntry{nodes_[cur].ts, nodes_[cur].addr});
      if (nodes_[cur].right != kNull) {
        cur = leftmost(nodes_[cur].right);
      } else {
        // Climb until we leave a left subtree; that ancestor is next.
        std::uint32_t up = nodes_[cur].parent;
        while (up != kNull && nodes_[up].right == cur) {
          cur = up;
          up = nodes_[up].parent;
        }
        cur = up;
      }
    }
  }

  /// Checks BST ordering, subtree weights, and parent links.
  bool validate() const;

 private:
  static constexpr std::uint32_t kNull = 0xFFFFFFFFu;

  struct Node {
    Timestamp ts;
    Addr addr;
    std::uint32_t left;
    std::uint32_t right;
    std::uint32_t parent;
    std::uint64_t weight;  // subtree node count
  };

  std::uint32_t alloc_node(Timestamp ts, Addr addr);
  void free_node(std::uint32_t n) noexcept;
  std::uint64_t weight_of(std::uint32_t n) const noexcept {
    return n == kNull ? 0 : nodes_[n].weight;
  }
  void update(std::uint32_t n) noexcept;
  void rotate(std::uint32_t x) noexcept;
  void splay(std::uint32_t x) noexcept;
  /// Descends to ts; returns the node if found, else kNull, setting
  /// last_visited to the final node on the search path.
  std::uint32_t descend(Timestamp ts, std::uint32_t& last_visited) const
      noexcept;
  std::uint32_t leftmost(std::uint32_t n) const noexcept;
  void remove_root();

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_list_;
  std::uint32_t root_ = kNull;
  std::size_t size_ = 0;
};

static_assert(OrderStatTree<SplayTree>);

}  // namespace parda

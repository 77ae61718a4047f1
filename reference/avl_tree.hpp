// AVL order-statistic engine — the structure of Olken's original sequential
// algorithm [13]. Strictly balanced, so count_greater is worst-case
// O(log n) with no restructuring on queries (unlike the splay engine).
#pragma once

#include <cstdint>
#include <vector>

#include "tree/order_stat_tree.hpp"
#include "util/types.hpp"

namespace parda {

class AvlTree {
 public:
  AvlTree() = default;

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
    for_each_impl(root_, fn);
  }

  bool validate() const;

  /// Height of the root (0 for empty); exposed for balance tests.
  int height() const noexcept { return height_of(root_); }

 private:
  static constexpr std::uint32_t kNull = 0xFFFFFFFFu;

  struct Node {
    Timestamp ts;
    Addr addr;
    std::uint32_t left;
    std::uint32_t right;
    std::uint64_t weight;
    std::int32_t height;
  };

  std::uint32_t alloc_node(Timestamp ts, Addr addr);
  std::uint64_t weight_of(std::uint32_t n) const noexcept {
    return n == kNull ? 0 : nodes_[n].weight;
  }
  std::int32_t height_of(std::uint32_t n) const noexcept {
    return n == kNull ? 0 : nodes_[n].height;
  }
  void update(std::uint32_t n) noexcept;
  std::int32_t balance_of(std::uint32_t n) const noexcept;
  std::uint32_t rotate_left(std::uint32_t n) noexcept;
  std::uint32_t rotate_right(std::uint32_t n) noexcept;
  std::uint32_t rebalance(std::uint32_t n) noexcept;
  std::uint32_t insert_impl(std::uint32_t n, std::uint32_t fresh);
  std::uint32_t erase_impl(std::uint32_t n, Timestamp ts, bool& erased);
  std::uint32_t pop_min_impl(std::uint32_t n, std::uint32_t& min_node);
  bool validate_impl(std::uint32_t n, Timestamp lo, Timestamp hi,
                     bool has_lo, bool has_hi) const;

  template <typename Fn>
  void for_each_impl(std::uint32_t n, Fn& fn) const {
    if (n == kNull) return;
    for_each_impl(nodes_[n].left, fn);
    fn(TreeEntry{nodes_[n].ts, nodes_[n].addr});
    for_each_impl(nodes_[n].right, fn);
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_list_;
  std::uint32_t root_ = kNull;
  std::size_t size_ = 0;
};

static_assert(OrderStatTree<AvlTree>);

}  // namespace parda

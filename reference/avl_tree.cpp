#include "reference/avl_tree.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace parda {

std::uint32_t AvlTree::alloc_node(Timestamp ts, Addr addr) {
  std::uint32_t n;
  if (!free_list_.empty()) {
    n = free_list_.back();
    free_list_.pop_back();
  } else {
    PARDA_CHECK(nodes_.size() < kNull);
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[n] = Node{ts, addr, kNull, kNull, 1, 1};
  return n;
}

void AvlTree::update(std::uint32_t n) noexcept {
  Node& node = nodes_[n];
  node.weight = 1 + weight_of(node.left) + weight_of(node.right);
  node.height = 1 + std::max(height_of(node.left), height_of(node.right));
}

std::int32_t AvlTree::balance_of(std::uint32_t n) const noexcept {
  return height_of(nodes_[n].left) - height_of(nodes_[n].right);
}

std::uint32_t AvlTree::rotate_left(std::uint32_t n) noexcept {
  const std::uint32_t r = nodes_[n].right;
  nodes_[n].right = nodes_[r].left;
  nodes_[r].left = n;
  update(n);
  update(r);
  return r;
}

std::uint32_t AvlTree::rotate_right(std::uint32_t n) noexcept {
  const std::uint32_t l = nodes_[n].left;
  nodes_[n].left = nodes_[l].right;
  nodes_[l].right = n;
  update(n);
  update(l);
  return l;
}

std::uint32_t AvlTree::rebalance(std::uint32_t n) noexcept {
  update(n);
  const std::int32_t balance = balance_of(n);
  if (balance > 1) {
    if (balance_of(nodes_[n].left) < 0) {
      nodes_[n].left = rotate_left(nodes_[n].left);
    }
    return rotate_right(n);
  }
  if (balance < -1) {
    if (balance_of(nodes_[n].right) > 0) {
      nodes_[n].right = rotate_right(nodes_[n].right);
    }
    return rotate_left(n);
  }
  return n;
}

std::uint32_t AvlTree::insert_impl(std::uint32_t n, std::uint32_t fresh) {
  if (n == kNull) return fresh;
  PARDA_DCHECK(nodes_[fresh].ts != nodes_[n].ts);
  if (nodes_[fresh].ts < nodes_[n].ts) {
    nodes_[n].left = insert_impl(nodes_[n].left, fresh);
  } else {
    nodes_[n].right = insert_impl(nodes_[n].right, fresh);
  }
  return rebalance(n);
}

void AvlTree::insert(Timestamp ts, Addr addr) {
  const std::uint32_t fresh = alloc_node(ts, addr);
  root_ = insert_impl(root_, fresh);
  ++size_;
}

std::uint32_t AvlTree::pop_min_impl(std::uint32_t n,
                                    std::uint32_t& min_node) {
  if (nodes_[n].left == kNull) {
    min_node = n;
    return nodes_[n].right;
  }
  nodes_[n].left = pop_min_impl(nodes_[n].left, min_node);
  return rebalance(n);
}

std::uint32_t AvlTree::erase_impl(std::uint32_t n, Timestamp ts,
                                  bool& erased) {
  if (n == kNull) return kNull;
  if (ts < nodes_[n].ts) {
    nodes_[n].left = erase_impl(nodes_[n].left, ts, erased);
  } else if (ts > nodes_[n].ts) {
    nodes_[n].right = erase_impl(nodes_[n].right, ts, erased);
  } else {
    erased = true;
    const std::uint32_t left = nodes_[n].left;
    const std::uint32_t right = nodes_[n].right;
    free_list_.push_back(n);
    if (right == kNull) return left;
    if (left == kNull) return right;
    std::uint32_t successor = kNull;
    const std::uint32_t new_right = pop_min_impl(right, successor);
    nodes_[successor].left = left;
    nodes_[successor].right = new_right;
    return rebalance(successor);
  }
  return rebalance(n);
}

bool AvlTree::erase(Timestamp ts) {
  bool erased = false;
  root_ = erase_impl(root_, ts, erased);
  if (erased) --size_;
  return erased;
}

std::uint64_t AvlTree::count_greater(Timestamp ts) const noexcept {
  std::uint64_t count = 0;
  std::uint32_t cur = root_;
  while (cur != kNull) {
    const Node& node = nodes_[cur];
    if (node.ts > ts) {
      count += 1 + weight_of(node.right);
      cur = node.left;
    } else {
      cur = node.right;
    }
  }
  return count;
}

TreeEntry AvlTree::oldest() const {
  PARDA_CHECK(root_ != kNull);
  std::uint32_t cur = root_;
  while (nodes_[cur].left != kNull) cur = nodes_[cur].left;
  return TreeEntry{nodes_[cur].ts, nodes_[cur].addr};
}

TreeEntry AvlTree::pop_oldest() {
  const TreeEntry entry = oldest();
  const bool erased = erase(entry.ts);
  PARDA_CHECK(erased);
  return entry;
}

void AvlTree::clear() noexcept {
  nodes_.clear();
  free_list_.clear();
  root_ = kNull;
  size_ = 0;
}


bool AvlTree::validate_impl(std::uint32_t n, Timestamp lo, Timestamp hi,
                            bool has_lo, bool has_hi) const {
  if (n == kNull) return true;
  const Node& node = nodes_[n];
  if (has_lo && node.ts <= lo) return false;
  if (has_hi && node.ts >= hi) return false;
  if (node.weight != 1 + weight_of(node.left) + weight_of(node.right))
    return false;
  if (node.height !=
      1 + std::max(height_of(node.left), height_of(node.right)))
    return false;
  if (std::abs(height_of(node.left) - height_of(node.right)) > 1)
    return false;
  return validate_impl(node.left, lo, node.ts, has_lo, true) &&
         validate_impl(node.right, node.ts, hi, true, has_hi);
}

bool AvlTree::validate() const {
  if (root_ == kNull) return size_ == 0;
  return weight_of(root_) == size_ && validate_impl(root_, 0, 0, false, false);
}

}  // namespace parda

#include "reference/treap.hpp"

#include "util/check.hpp"
#include "util/prng.hpp"

namespace parda {

std::uint32_t Treap::alloc_node(Timestamp ts, Addr addr) {
  std::uint32_t n;
  if (!free_list_.empty()) {
    n = free_list_.back();
    free_list_.pop_back();
  } else {
    PARDA_CHECK(nodes_.size() < kNull);
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  // Deterministic priority keeps runs reproducible while remaining
  // effectively random with respect to key order.
  nodes_[n] = Node{ts, addr, mix64(ts ^ 0x6a09e667f3bcc909ULL),
                   kNull,    kNull, 1};
  return n;
}

void Treap::update(std::uint32_t n) noexcept {
  Node& node = nodes_[n];
  node.weight = 1 + weight_of(node.left) + weight_of(node.right);
}

void Treap::split(std::uint32_t n, Timestamp ts, std::uint32_t& lo,
                  std::uint32_t& hi) {
  if (n == kNull) {
    lo = hi = kNull;
    return;
  }
  if (nodes_[n].ts < ts) {
    split(nodes_[n].right, ts, nodes_[n].right, hi);
    lo = n;
    update(n);
  } else {
    split(nodes_[n].left, ts, lo, nodes_[n].left);
    hi = n;
    update(n);
  }
}

std::uint32_t Treap::merge(std::uint32_t lo, std::uint32_t hi) {
  if (lo == kNull) return hi;
  if (hi == kNull) return lo;
  if (nodes_[lo].priority > nodes_[hi].priority) {
    nodes_[lo].right = merge(nodes_[lo].right, hi);
    update(lo);
    return lo;
  }
  nodes_[hi].left = merge(lo, nodes_[hi].left);
  update(hi);
  return hi;
}

void Treap::insert(Timestamp ts, Addr addr) {
  const std::uint32_t fresh = alloc_node(ts, addr);
  std::uint32_t lo = kNull;
  std::uint32_t hi = kNull;
  split(root_, ts, lo, hi);
  root_ = merge(merge(lo, fresh), hi);
  ++size_;
}

bool Treap::erase(Timestamp ts) {
  std::uint32_t lo = kNull;
  std::uint32_t mid_hi = kNull;
  split(root_, ts, lo, mid_hi);
  std::uint32_t mid = kNull;
  std::uint32_t hi = kNull;
  split(mid_hi, ts + 1, mid, hi);
  const bool erased = mid != kNull;
  if (erased) {
    PARDA_DCHECK(nodes_[mid].left == kNull && nodes_[mid].right == kNull);
    free_list_.push_back(mid);
    --size_;
  }
  root_ = merge(lo, hi);
  return erased;
}

std::uint64_t Treap::count_greater(Timestamp ts) const noexcept {
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

TreeEntry Treap::oldest() const {
  PARDA_CHECK(root_ != kNull);
  std::uint32_t cur = root_;
  while (nodes_[cur].left != kNull) cur = nodes_[cur].left;
  return TreeEntry{nodes_[cur].ts, nodes_[cur].addr};
}

TreeEntry Treap::pop_oldest() {
  const TreeEntry entry = oldest();
  const bool erased = erase(entry.ts);
  PARDA_CHECK(erased);
  return entry;
}

void Treap::clear() noexcept {
  nodes_.clear();
  free_list_.clear();
  root_ = kNull;
  size_ = 0;
}


bool Treap::validate_impl(std::uint32_t n) const {
  if (n == kNull) return true;
  const Node& node = nodes_[n];
  if (node.weight != 1 + weight_of(node.left) + weight_of(node.right))
    return false;
  if (node.left != kNull && (nodes_[node.left].ts >= node.ts ||
                             nodes_[node.left].priority > node.priority))
    return false;
  if (node.right != kNull && (nodes_[node.right].ts <= node.ts ||
                              nodes_[node.right].priority > node.priority))
    return false;
  return validate_impl(node.left) && validate_impl(node.right);
}

bool Treap::validate() const {
  return weight_of(root_) == size_ && validate_impl(root_);
}

}  // namespace parda

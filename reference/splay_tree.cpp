#include "reference/splay_tree.hpp"

#include "util/check.hpp"

namespace parda {

std::uint32_t SplayTree::alloc_node(Timestamp ts, Addr addr) {
  std::uint32_t n;
  if (!free_list_.empty()) {
    n = free_list_.back();
    free_list_.pop_back();
  } else {
    PARDA_CHECK(nodes_.size() < kNull);
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[n] = Node{ts, addr, kNull, kNull, kNull, 1};
  return n;
}

void SplayTree::free_node(std::uint32_t n) noexcept {
  free_list_.push_back(n);
}

void SplayTree::update(std::uint32_t n) noexcept {
  Node& node = nodes_[n];
  node.weight = 1 + weight_of(node.left) + weight_of(node.right);
}

void SplayTree::rotate(std::uint32_t x) noexcept {
  const std::uint32_t p = nodes_[x].parent;
  const std::uint32_t g = nodes_[p].parent;
  if (nodes_[p].left == x) {
    nodes_[p].left = nodes_[x].right;
    if (nodes_[x].right != kNull) nodes_[nodes_[x].right].parent = p;
    nodes_[x].right = p;
  } else {
    nodes_[p].right = nodes_[x].left;
    if (nodes_[x].left != kNull) nodes_[nodes_[x].left].parent = p;
    nodes_[x].left = p;
  }
  nodes_[p].parent = x;
  nodes_[x].parent = g;
  if (g != kNull) {
    if (nodes_[g].left == p) {
      nodes_[g].left = x;
    } else {
      nodes_[g].right = x;
    }
  } else {
    root_ = x;
  }
  update(p);
  update(x);
}

void SplayTree::splay(std::uint32_t x) noexcept {
  while (nodes_[x].parent != kNull) {
    const std::uint32_t p = nodes_[x].parent;
    const std::uint32_t g = nodes_[p].parent;
    if (g != kNull) {
      const bool zigzig = (nodes_[g].left == p) == (nodes_[p].left == x);
      if (zigzig) {
        rotate(p);
      } else {
        rotate(x);
      }
    }
    rotate(x);
  }
}

std::uint32_t SplayTree::descend(Timestamp ts,
                                 std::uint32_t& last_visited) const noexcept {
  std::uint32_t cur = root_;
  last_visited = kNull;
  while (cur != kNull) {
    last_visited = cur;
    const Node& node = nodes_[cur];
    if (ts == node.ts) return cur;
    cur = ts < node.ts ? node.left : node.right;
  }
  return kNull;
}

void SplayTree::insert(Timestamp ts, Addr addr) {
  const std::uint32_t n = alloc_node(ts, addr);
  if (root_ == kNull) {
    root_ = n;
    ++size_;
    return;
  }
  std::uint32_t cur = root_;
  while (true) {
    Node& node = nodes_[cur];
    PARDA_DCHECK(node.ts != ts);
    ++node.weight;  // new node lands in this subtree
    std::uint32_t& child = ts < node.ts ? node.left : node.right;
    if (child == kNull) {
      child = n;
      nodes_[n].parent = cur;
      break;
    }
    cur = child;
  }
  ++size_;
  splay(n);
}

std::uint64_t SplayTree::count_greater(Timestamp ts) {
  std::uint32_t last = kNull;
  const std::uint32_t found = descend(ts, last);
  if (last == kNull) return 0;  // empty tree
  // Splay the deepest node visited; this is the amortized-O(log n) access
  // that pays for the search even on misses.
  splay(found != kNull ? found : last);
  const Node& root = nodes_[root_];
  std::uint64_t count = weight_of(root.right);
  // After splaying, root is ts itself, or its predecessor/successor when ts
  // is absent; in all cases everything strictly greater than ts is the
  // right subtree, plus the root when the root's key itself exceeds ts.
  if (root.ts > ts) ++count;
  return count;
}

void SplayTree::remove_root() {
  const std::uint32_t old_root = root_;
  const std::uint32_t left = nodes_[old_root].left;
  const std::uint32_t right = nodes_[old_root].right;
  if (left == kNull) {
    root_ = right;
    if (right != kNull) nodes_[right].parent = kNull;
  } else {
    nodes_[left].parent = kNull;
    // Splay the maximum of the left subtree to its root; it then has no
    // right child and adopts the old right subtree.
    std::uint32_t m = left;
    while (nodes_[m].right != kNull) m = nodes_[m].right;
    root_ = left;
    splay(m);
    PARDA_DCHECK(nodes_[m].right == kNull);
    nodes_[m].right = right;
    if (right != kNull) nodes_[right].parent = m;
    update(m);
  }
  free_node(old_root);
  --size_;
}

bool SplayTree::erase(Timestamp ts) {
  std::uint32_t last = kNull;
  const std::uint32_t found = descend(ts, last);
  if (found == kNull) {
    if (last != kNull) splay(last);
    return false;
  }
  splay(found);
  remove_root();
  return true;
}

std::uint32_t SplayTree::leftmost(std::uint32_t n) const noexcept {
  while (nodes_[n].left != kNull) n = nodes_[n].left;
  return n;
}

TreeEntry SplayTree::oldest() const {
  PARDA_CHECK(root_ != kNull);
  const Node& node = nodes_[leftmost(root_)];
  return TreeEntry{node.ts, node.addr};
}

TreeEntry SplayTree::pop_oldest() {
  PARDA_CHECK(root_ != kNull);
  const std::uint32_t n = leftmost(root_);
  const TreeEntry entry{nodes_[n].ts, nodes_[n].addr};
  splay(n);
  remove_root();
  return entry;
}

void SplayTree::clear() noexcept {
  nodes_.clear();
  free_list_.clear();
  root_ = kNull;
  size_ = 0;
}


bool SplayTree::validate() const {
  if (root_ == kNull) return size_ == 0;
  if (nodes_[root_].parent != kNull) return false;
  // Iterative subtree check with an explicit stack.
  struct Frame {
    std::uint32_t node;
    bool expanded;
  };
  std::vector<Frame> stack{{root_, false}};
  std::size_t visited = 0;
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const Node& node = nodes_[frame.node];
    if (!frame.expanded) {
      ++visited;
      if (node.weight !=
          1 + weight_of(node.left) + weight_of(node.right)) {
        return false;
      }
      for (std::uint32_t child : {node.left, node.right}) {
        if (child == kNull) continue;
        if (nodes_[child].parent != frame.node) return false;
        if (child == node.left && nodes_[child].ts >= node.ts) return false;
        if (child == node.right && nodes_[child].ts <= node.ts) return false;
        stack.push_back({child, false});
      }
    }
  }
  // BST order across whole tree: verified via for_each monotonicity.
  Timestamp prev = 0;
  bool first = true;
  bool ordered = true;
  for_each([&](TreeEntry e) {
    if (!first && e.ts <= prev) ordered = false;
    prev = e.ts;
    first = false;
  });
  return ordered && visited == size_;
}

}  // namespace parda

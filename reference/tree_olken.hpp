// Olken's Algorithm 1 as the paper and its Olken81 baseline ran it: one
// olken_step per reference on a pointer tree (the paper's is SplayTree),
// keyed by trace position, with access_block's hash prefetch. The
// library's OlkenAnalyzer runs the same step on the renumbered
// FenwickIndex stack; this loop keeps the paper's configuration timed for
// the A1 tree ablation, the A3 bound sweep and Table IV, and the pointer
// tree tests check its histograms against the naive stack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "hash/addr_map.hpp"
#include "hist/histogram.hpp"
#include "seq/olken.hpp"
#include "tree/order_stat_tree.hpp"
#include "util/types.hpp"

namespace parda {

/// Algorithm 1 over `trace` on a fresh Tree, folded at `bound`
/// (kUnbounded = none).
template <OrderStatTree Tree>
Histogram tree_olken_analysis(std::span<const Addr> trace,
                              std::uint64_t bound = kUnbounded) {
  constexpr std::size_t kAhead = 8;
  Tree tree;
  AddrMap table;
  Histogram hist;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i + kAhead < trace.size()) table.prefetch(trace[i + kAhead]);
    hist.record(olken_step(tree, table, trace[i], i, bound).distance);
  }
  return hist;
}

}  // namespace parda

// Olken's tree-based sequential reuse distance analysis (paper Algorithm 1),
// with the cache bound B of Algorithm 7 as a constructor argument.
//
// State is a hash table (address -> last timestamp) plus an order-statistic
// tree holding one entry per distinct address, keyed by last-reference
// timestamp. Each reference costs one hash lookup and O(log M) tree work.
// The tree engine is a template parameter; the paper's configuration is
// OlkenAnalyzer<SplayTree>.
//
// With a bound B (kUnbounded = none), the tree and hash table hold at most
// B entries — the B most recently referenced distinct addresses — evicting
// LRU like a real cache of size B, so a reference costs O(log B). Every
// reference with true distance d < B is measured exactly; everything else
// (evicted or first-ever) lands in the infinity bin, which is all a cache
// of size <= B needs.
#pragma once

#include <cstdint>
#include <span>

#include "hash/addr_map.hpp"
#include "hist/histogram.hpp"
#include "seq/analyzer.hpp"
#include "tree/order_stat_tree.hpp"
#include "tree/splay_tree.hpp"
#include "util/types.hpp"

namespace parda {

/// What one Olken step did.
struct OlkenStep {
  Distance distance;  // to z's previous reference; kInfiniteDistance on a miss
  bool evicted;       // the miss found `bound` entries and evicted the oldest
};

/// One step of Algorithm 1, shared by OlkenAnalyzer and every Parda rank
/// (RankState): references z at key `now`, which must exceed every key in
/// `tree`. A hit's distance is the number of keys newer than z's previous
/// one, each the last reference of a distinct address. Under a bound
/// (kUnbounded = none), a miss with `bound` entries resident first evicts
/// the least recently referenced one.
template <OrderStatTree Tree>
OlkenStep olken_step(Tree& tree, AddrMap& table, Addr z, Timestamp now,
                     std::uint64_t bound) {
  OlkenStep step{kInfiniteDistance, false};
  if (const Timestamp* last = table.find(z)) {
    step.distance = tree.count_greater(*last);
    tree.erase(*last);
  } else if (bound != kUnbounded && tree.size() >= bound) {
    table.erase(tree.pop_oldest().addr);
    step.evicted = true;
  }
  tree.insert(now, z);
  table.insert_or_assign(z, now);
  return step;
}

template <OrderStatTree Tree>
class OlkenAnalyzer {
 public:
  /// bound: kUnbounded, or the cache bound B of Algorithm 7.
  explicit OlkenAnalyzer(std::uint64_t bound = kUnbounded) : bound_(bound) {}

  /// Processes one reference and returns its reuse distance: exact when
  /// finite; kInfiniteDistance for a first reference and, under a bound,
  /// for a reference whose true distance is >= B (capacity miss). Does NOT
  /// touch the internal histogram — callers that want the distance stream
  /// tally it themselves; the ReuseAnalyzer surface is process().
  Distance access(Addr z) {
    const OlkenStep step = olken_step(tree_, table_, z, now_++, bound_);
    evictions_ += step.evicted ? 1 : 0;
    return step.distance;
  }

  /// Batched access: records each reference's distance into `hist` with
  /// the hash probe a few references ahead software-prefetched, so the
  /// table's home slot is resident by the time access() runs. Identical
  /// tallies to calling access() per reference.
  void access_block(std::span<const Addr> block, Histogram& hist) {
    constexpr std::size_t kAhead = 8;
    const std::size_t n = block.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) table_.prefetch(block[i + kAhead]);
      hist.record(access(block[i]));
    }
  }

  // --- ReuseAnalyzer surface -----------------------------------------------
  void process(Addr z) { hist_.record(access(z)); }
  void process_block(std::span<const Addr> block) {
    access_block(block, hist_);
  }

  void finish() {}
  const Histogram& histogram() const noexcept { return hist_; }
  EngineStats stats() const {
    EngineStats s;
    s.references = now_;
    s.finite = hist_.finite_total();
    s.infinities = hist_.infinities();
    s.hash_probes = table_.probe_count();
    s.evictions = evictions_;
    // The resident set never shrinks (a hit re-keys its entry, an eviction
    // makes room for the insert), so the current footprint is the peak —
    // B once any eviction has happened.
    s.peak_footprint = tree_.size();
    detail::fill_tree_stats(tree_, s);
    return s;
  }

  std::uint64_t bound() const noexcept { return bound_; }

  /// Next timestamp to be assigned (== number of references processed).
  Timestamp time() const noexcept { return now_; }

  /// Distinct addresses currently tracked (<= bound under a bound).
  std::size_t footprint() const noexcept { return tree_.size(); }

  const Tree& tree() const noexcept { return tree_; }
  const AddrMap& table() const noexcept { return table_; }

  void reset() {
    tree_.clear();
    table_.clear();
    hist_.clear();
    now_ = 0;
    evictions_ = 0;
  }

 private:
  std::uint64_t bound_;
  Tree tree_;
  AddrMap table_;
  Histogram hist_;
  Timestamp now_ = 0;
  std::uint64_t evictions_ = 0;
};

static_assert(ReuseAnalyzer<OlkenAnalyzer<SplayTree>>);
static_assert(BlockReuseAnalyzer<OlkenAnalyzer<SplayTree>>);

/// Runs Algorithm 1 over a whole trace and returns the histogram.
template <OrderStatTree Tree = SplayTree>
Histogram olken_analysis(std::span<const Addr> trace) {
  OlkenAnalyzer<Tree> analyzer;
  return analyze_trace(analyzer, trace);
}

}  // namespace parda

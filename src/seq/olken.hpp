// Olken's tree-based sequential reuse distance analysis (paper Algorithm 1),
// with the cache bound B of Algorithm 7 as a constructor argument.
//
// State is a hash table (address -> key of its last reference) plus an
// order-statistic index holding one entry per distinct address, keyed in
// reference order. Each reference costs one hash lookup and O(log M)
// index work. The index is OlkenStack's: a FenwickIndex over a dense clock
// that the stack renumbers, the same stack every Parda rank (RankState)
// runs on. The paper's splay tree, and the AVL tree and treap, stay
// measurable through olken_step, which the reference library
// (reference/tree_olken.hpp) runs over them for bench/ and tests/.
//
// With a bound B (kUnbounded = none), the stack holds at most B entries —
// the B most recently referenced distinct addresses — evicting LRU like a
// real cache of size B, so a reference costs O(log B). Every reference
// with true distance d < B is measured exactly; everything else (evicted
// or first-ever) lands in the infinity bin, which is all a cache of size
// <= B needs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hash/addr_map.hpp"
#include "hist/histogram.hpp"
#include "seq/analyzer.hpp"
#include "tree/fenwick.hpp"
#include "tree/order_stat_tree.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace parda {

/// What one Olken step did.
struct OlkenStep {
  Distance distance;  // to z's previous reference; kInfiniteDistance on a miss
  bool evicted;       // the miss found `bound` entries and evicted the oldest
};

/// One step of Algorithm 1, shared by OlkenStack and the reference
/// library's pointer-tree loop: references z at key `now`, which must
/// exceed every key in `tree`. A hit's distance is the number of keys
/// newer than z's previous one, each the last reference of a distinct
/// address. Under a bound (kUnbounded = none), a miss with `bound` entries
/// resident first evicts the least recently referenced one.
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

/// The Olken stack of OlkenAnalyzer and of every Parda rank: a FenwickIndex
/// and an AddrMap keyed by the stack's own clock, not by trace position.
/// A new reference takes the next tick; older state (Parda's phase holder
/// importing the ranks to its left) takes the ticks just below the oldest
/// key. Key order is therefore time order and the keys stay dense.
///
/// Each hit leaves a dead key behind. The owner bounds them with
/// bound_key_span(slack), which renumbers the live keys before the dead
/// ones outnumber them by more than the slack, so the index window stays
/// O(resident + slack) however long the trace.
class OlkenStack {
 public:
  /// One olken_step for z at the next tick.
  OlkenStep step(Addr z, std::uint64_t bound) {
    return olken_step(index_, table_, z, next_key_++, bound);
  }

  /// Algorithm 4's hit: when z is resident, removes it and returns the
  /// number of resident entries newer than it; otherwise returns
  /// kInfiniteDistance and changes nothing.
  Distance remove(Addr z) {
    const Timestamp* last = table_.find(z);
    if (last == nullptr) return kInfiniteDistance;
    const Distance newer = index_.count_greater(*last);
    index_.erase(*last);
    table_.erase(z);
    return newer;
  }

  /// Keys `older`, oldest first, just below the oldest resident key, so no
  /// resident entry is re-keyed and the hash table sees one insert per
  /// address. None of its addresses may be resident.
  void push_older(std::span<const Addr> older) {
    constexpr std::size_t kAhead = 8;
    const std::size_t n = older.size();
    Timestamp key = (index_.empty() ? next_key_ : index_.oldest().ts) - n;
    first_key_ = std::min(first_key_, key);
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) table_.prefetch(older[i + kAhead]);
      PARDA_DCHECK(!table_.contains(older[i]));
      index_.insert(key, older[i]);
      table_.insert_or_assign(older[i], key);
      ++key;
    }
  }

  /// The resident addresses, least recently referenced first.
  std::vector<Addr> addrs() const {
    std::vector<Addr> out;
    out.reserve(index_.size());
    index_.for_each([&](TreeEntry e) { out.push_back(e.addr); });
    return out;
  }

  /// Empties the stack and restarts its clock.
  void clear() {
    index_.clear();
    table_.clear();
    first_key_ = next_key_ = kClockOrigin;
  }

  /// Renumbers the live keys once the dead keys in the span outnumber them
  /// by more than slack. A renumbering costs O(window) and leaves no dead
  /// key, so a slack of at least the index's minimum window keeps it O(1)
  /// amortized per key that died since the last one.
  void bound_key_span(std::uint64_t slack) {
    if (key_span() > 2 * size() + slack) compact_keys();
  }

  /// Keys from the lowest one handed out since the clock last restarted to
  /// the next one it hands out. Every live key lies in the span, so it
  /// bounds what the FenwickIndex's window must cover.
  std::uint64_t key_span() const noexcept { return next_key_ - first_key_; }

  std::size_t size() const noexcept { return index_.size(); }
  void prefetch(Addr z) const noexcept { table_.prefetch(z); }
  const AddrMap& table() const noexcept { return table_; }

  /// Bytes in the stack's arrays: the index window and the hash slots.
  std::uint64_t bytes() const noexcept {
    return index_.bytes() + table_.bytes();
  }

 private:
  /// The clock restarts here, far from 0, so that push_older can always
  /// take keys below a fresh stack's first key.
  static constexpr Timestamp kClockOrigin = Timestamp{1} << 62;

  /// Renumbers the live keys kClockOrigin, kClockOrigin + 1, ... in order.
  void compact_keys() {
    const std::vector<Addr> live = addrs();
    index_.clear();
    for (std::size_t i = 0; i < live.size(); ++i) {
      index_.insert(kClockOrigin + i, live[i]);
      *table_.find(live[i]) = kClockOrigin + i;
    }
    first_key_ = kClockOrigin;
    next_key_ = kClockOrigin + live.size();
  }

  FenwickIndex index_;
  AddrMap table_;                       // address -> key
  Timestamp next_key_ = kClockOrigin;   // the clock
  Timestamp first_key_ = kClockOrigin;  // lowest key since it restarted
};

class OlkenAnalyzer {
 public:
  /// The least slack the analyzer renumbers with: the FenwickIndex's
  /// minimum window, below which a renumbering would not pay for itself.
  static constexpr std::uint64_t kMinKeySlack = 1024;

  /// bound: kUnbounded, or the cache bound B of Algorithm 7.
  explicit OlkenAnalyzer(std::uint64_t bound = kUnbounded) : bound_(bound) {}

  /// Processes one reference and returns its reuse distance: exact when
  /// finite; kInfiniteDistance for a first reference and, under a bound,
  /// for a reference whose true distance is >= B (capacity miss). Does NOT
  /// touch the internal histogram — callers that want the distance stream
  /// tally it themselves; the ReuseAnalyzer surface is process().
  ///
  /// The slack is max(resident, kMinKeySlack): it depends on the stack
  /// alone, never on how the caller batches references, so access_block
  /// renumbers where per-reference access does, and a bounded stack stays
  /// O(B).
  Distance access(Addr z) {
    const OlkenStep step = stack_.step(z, bound_);
    evictions_ += step.evicted ? 1 : 0;
    ++references_;
    stack_.bound_key_span(
        std::max<std::uint64_t>(stack_.size(), kMinKeySlack));
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
      if (i + kAhead < n) stack_.prefetch(block[i + kAhead]);
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
    s.references = references_;
    s.finite = hist_.finite_total();
    s.infinities = hist_.infinities();
    s.hash_probes = stack_.table().probe_count();
    s.evictions = evictions_;
    // The resident set never shrinks (a hit re-keys its entry, an eviction
    // makes room for the insert), so the current footprint is the peak —
    // B once any eviction has happened.
    s.peak_footprint = stack_.size();
    return s;
  }

  std::uint64_t bound() const noexcept { return bound_; }

  /// References processed.
  std::uint64_t time() const noexcept { return references_; }

  /// Distinct addresses currently tracked (<= bound under a bound).
  std::size_t footprint() const noexcept { return stack_.size(); }

  const OlkenStack& stack() const noexcept { return stack_; }

  void reset() {
    stack_.clear();
    hist_.clear();
    references_ = 0;
    evictions_ = 0;
  }

 private:
  std::uint64_t bound_;
  OlkenStack stack_;
  Histogram hist_;
  std::uint64_t references_ = 0;
  std::uint64_t evictions_ = 0;
};

static_assert(ReuseAnalyzer<OlkenAnalyzer>);
static_assert(BlockReuseAnalyzer<OlkenAnalyzer>);

/// Runs Algorithm 1 over a whole trace and returns the histogram.
inline Histogram olken_analysis(std::span<const Addr> trace) {
  OlkenAnalyzer analyzer;
  return analyze_trace(analyzer, trace);
}

}  // namespace parda

// Per-rank analysis state for the Parda parallel algorithm.
//
// One RankState bundles the tree + hash table + histogram of Algorithm 3's
// modified stack_dist, the local-infinity queue, the received-infinity
// counter of the space-optimized merge (Algorithm 4), and the bounded-cache
// logic of Algorithm 7. It is deliberately comm-agnostic so the same state
// machine drives the offline, phased, and test harnesses.
//
// Bounded-mode semantics (one deliberate tightening over the paper, see
// DESIGN.md): with bound B, the final histogram is exact for all d < B and
// every reference with true distance >= B is an infinity. The paper's
// Algorithm 4 would occasionally resolve an inter-chunk distance >= B
// exactly; we clamp those to infinity so bounded-parallel equals
// bounded-sequential bit-for-bit, which the property tests verify.
#pragma once

#include <span>
#include <vector>

#include "core/messages.hpp"
#include "hash/addr_map.hpp"
#include "hist/histogram.hpp"
#include "tree/order_stat_tree.hpp"
#include "tree/splay_tree.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace parda {

template <OrderStatTree Tree = SplayTree>
class RankState {
 public:
  /// bound: kUnbounded, or the cache bound B of Algorithm 7.
  /// space_optimized: use Algorithm 4 for incoming infinities. Bounded mode
  /// requires it (the paper's evaluated configuration).
  explicit RankState(std::uint64_t bound = kUnbounded,
                     bool space_optimized = true)
      : bound_(bound), space_optimized_(space_optimized) {
    PARDA_CHECK(bound_ == kUnbounded || space_optimized_);
  }

  /// Processes one reference of this rank's own chunk; ts is the global
  /// trace position (Algorithm 3 / Algorithm 7 main loop).
  ///
  /// Bounded-mode note: the paper's Algorithm 7 emits at most B local
  /// infinities per chunk and counts later misses as infinite on the spot.
  /// That silently breaks Property 4.3 (the leftward record stream is no
  /// longer complete), which in turn leaves stale replicas on left ranks
  /// and undercounts the Algorithm 4 offset — observable as duplicated
  /// addresses in the phase reduction and mis-resolved inter-chunk
  /// distances. We instead emit a record for *every* miss (tree and hash
  /// stay bounded at B via LRU eviction, so the O(N/P log B) time claim is
  /// unaffected); a swallowed-in-the-paper record always carries a true
  /// distance >= B, so downstream it either misses everywhere (counted as
  /// an infinity at rank 0, correct) or resolves to a clamped distance
  /// >= B (also an infinity, correct). This is what makes the bounded
  /// parallel histogram equal the bounded sequential one bit for bit.
  void process_own(Addr z, Timestamp ts) {
    if (const Timestamp* last = table_.find(z)) {
      Distance d = tree_.count_greater(*last);
      tree_.erase(*last);
      // The tree can transiently exceed B entries (a phase-holder rank
      // carries up to B inherited entries plus its chunk's misses), so a
      // hit may resolve a distance >= B; under the bound that reference is
      // a capacity miss.
      if (bound_ != kUnbounded && d >= bound_) d = kInfiniteDistance;
      hist_.record(d);
    } else {
      if (bound_ != kUnbounded && table_.size() >= bound_) {
        // Capacity: evict LRU. The victim's own judgement was already
        // deferred when it first appeared, so nothing is tallied here.
        const TreeEntry victim = tree_.pop_oldest();
        table_.erase(victim.addr);
      }
      // First reference in this rank's view: defer judgement, pass left.
      loc_inf_.push_back(InfRecord{z, ts});
    }
    tree_.insert(ts, z);
    table_.insert_or_assign(z, ts);
    note_resident();
  }

  /// Batched process_own over a contiguous run of this rank's chunk whose
  /// first reference sits at global position base_ts. Identical tallies and
  /// record stream to the per-reference loop; the hash probe a few
  /// references ahead is software-prefetched.
  void process_own_block(std::span<const Addr> block, Timestamp base_ts) {
    constexpr std::size_t kAhead = 8;
    const std::size_t n = block.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) table_.prefetch(block[i + kAhead]);
      process_own(block[i], base_ts + i);
    }
  }

  /// Processes a received local-infinity list (one merge round). Survivors
  /// (still-unresolved references) are appended to the outgoing queue.
  void process_incoming(std::span<const InfRecord> records) {
    for (const InfRecord& rec : records) {
      if (const Timestamp* last = table_.find(rec.addr)) {
        Distance d = tree_.count_greater(*last);
        if (space_optimized_) {
          // Algorithm 4: offset by infinities received so far — distinct
          // elements of the right-hand suffix that are (by design) absent
          // from this rank's tree.
          d += received_count_;
          tree_.erase(*last);
          table_.erase(rec.addr);
        } else {
          // Unoptimized Algorithm 3: the incoming reference is replayed
          // like a normal trace entry, so the tree itself accounts for
          // every suffix element and no offset applies.
          tree_.erase(*last);
          tree_.insert(rec.ts, rec.addr);
          table_.insert_or_assign(rec.addr, rec.ts);
        }
        if (bound_ != kUnbounded && d >= bound_) d = kInfiniteDistance;
        hist_.record(d);
      } else {
        loc_inf_.push_back(rec);
        if (!space_optimized_) {
          tree_.insert(rec.ts, rec.addr);
          table_.insert_or_assign(rec.addr, rec.ts);
          note_resident();
        }
      }
      ++received_count_;
    }
  }

  /// The pending local-infinity queue (inspection only).
  const std::vector<InfRecord>& local_infinities() const noexcept {
    return loc_inf_;
  }

  /// Moves out the pending local-infinity queue (to send leftward).
  std::vector<InfRecord> take_local_infinities() {
    std::vector<InfRecord> out = std::move(loc_inf_);
    loc_inf_.clear();
    return out;
  }

  /// Rank 0 terminal handling: everything still unresolved is a global
  /// infinity (compulsory miss).
  void flush_global_infinities() {
    hist_.record(kInfiniteDistance, loc_inf_.size());
    loc_inf_.clear();
  }

  /// Serializes the resident (addr, last-ts) set for the phase reduction
  /// (Algorithm 6), leaving this rank empty.
  std::vector<InfRecord> export_state() {
    std::vector<InfRecord> out;
    out.reserve(tree_.size());
    tree_.for_each(
        [&](TreeEntry e) { out.push_back(InfRecord{e.addr, e.ts}); });
    tree_.clear();
    table_.clear();
    return out;
  }

  /// Merges another rank's exported state. With space optimization the
  /// address sets are disjoint (paper Section IV-C), so no duplicate check
  /// is needed — PARDA_DCHECK guards that claim in debug builds.
  void import_state(std::span<const InfRecord> records) {
    for (const InfRecord& rec : records) {
      PARDA_DCHECK(!table_.contains(rec.addr));
      tree_.insert(rec.ts, rec.addr);
      table_.insert_or_assign(rec.addr, rec.ts);
    }
    note_resident();
  }

  /// Bounded phases: drop all but the B most-recent distinct elements —
  /// anything older has >= B distinct successors and can never be hit again
  /// under the bound.
  void prune_to_bound() {
    if (bound_ == kUnbounded) return;
    while (tree_.size() > bound_) {
      const TreeEntry victim = tree_.pop_oldest();
      table_.erase(victim.addr);
    }
  }

  /// Resets the per-merge-stage received counter (start of each phase).
  void begin_merge_stage() { received_count_ = 0; }

  const Histogram& hist() const noexcept { return hist_; }
  Histogram& hist() noexcept { return hist_; }
  std::size_t resident() const noexcept { return tree_.size(); }
  std::uint64_t peak_resident() const noexcept { return peak_resident_; }
  std::uint64_t received_count() const noexcept { return received_count_; }
  std::size_t pending_infinities() const noexcept { return loc_inf_.size(); }
  std::uint64_t bound() const noexcept { return bound_; }
  bool space_optimized() const noexcept { return space_optimized_; }
  const Tree& tree() const noexcept { return tree_; }
  const AddrMap& table() const noexcept { return table_; }

 private:
  void note_resident() noexcept {
    if (tree_.size() > peak_resident_) peak_resident_ = tree_.size();
  }

  std::uint64_t bound_;
  bool space_optimized_;
  Tree tree_;
  AddrMap table_;
  Histogram hist_;
  std::vector<InfRecord> loc_inf_;
  std::uint64_t received_count_ = 0;  // 'count' of Algorithm 4
  std::uint64_t peak_resident_ = 0;
};

}  // namespace parda

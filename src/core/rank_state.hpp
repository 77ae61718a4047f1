// Per-rank analysis state for the Parda parallel algorithm.
//
// One RankState bundles the Olken stack + histogram of Algorithm 3's
// modified stack_dist, the local-infinity queue, the received-infinity
// counter of the space-optimized merge (Algorithm 4), and the bounded-cache
// logic of Algorithm 7. It is deliberately comm-agnostic so the same state
// machine drives the offline, phased, and test harnesses.
//
// Keys: the OlkenStack (seq/olken.hpp) keys each resident address by its
// own clock, not by its global trace position. Own-chunk references are
// newer than everything resident and take the next tick; state imported by
// the phase holder (Algorithm 6), one part at a time and the newest part
// first, is older than everything resident and takes the ticks just below
// the oldest key; incoming records only remove keys. Key order is
// therefore time order, and the index performs the operations it would
// perform keyed by global time. No global time is kept: records leave the
// rank as bare addresses in key order. The rank bounds the stack's dead
// keys with a slack of min(block, kKeySlack), so the index window stays
// O(resident + slack) however long the chunk or the stream.
//
// Bounded-mode semantics (one deliberate tightening over the paper, see
// DESIGN.md): with bound B, the final histogram is exact for all d < B and
// every reference with true distance >= B is an infinity. The paper's
// Algorithm 4 would occasionally resolve an inter-chunk distance >= B
// exactly; we clamp those to infinity so bounded-parallel equals
// bounded-sequential bit-for-bit, which the property tests verify. No rank
// ever holds more than B entries: an own-chunk miss evicts the oldest, and
// the phase holder keys only the newest addresses of each part that still
// fit under B.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "hash/addr_map.hpp"
#include "hist/histogram.hpp"
#include "seq/olken.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace parda {

class RankState {
 public:
  /// bound: kUnbounded, or the cache bound B of Algorithm 7.
  explicit RankState(std::uint64_t bound = kUnbounded) : bound_(bound) {}

  /// Processes one reference of this rank's own chunk (Algorithm 3 /
  /// Algorithm 7 main loop).
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
  void process_own(Addr z) {
    const Distance d = stack_.step(z, bound_).distance;
    if (d == kInfiniteDistance) {
      // First reference in this rank's view: defer judgement, pass left.
      loc_inf_.push_back(z);
    } else {
      record(d);
    }
    note_resident();
  }

  /// Batched process_own over a contiguous run of this rank's chunk.
  /// Identical tallies and record stream to the per-reference loop; the
  /// hash probe a few references ahead is software-prefetched.
  ///
  /// Every hit leaves its previous key dead, so the key span would grow
  /// with the chunk, and on a rank that never exports its state (np = 1
  /// streaming) with the whole trace. The rank renumbers its live keys as
  /// soon as the span exceeds twice the resident count plus the block
  /// (at most kKeySlack), so the span stays O(resident + slack).
  void process_own_block(std::span<const Addr> block) {
    constexpr std::size_t kAhead = 8;
    const std::size_t n = block.size();
    const std::uint64_t slack = std::min<std::uint64_t>(n, kKeySlack);
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) stack_.prefetch(block[i + kAhead]);
      process_own(block[i]);
      stack_.bound_key_span(slack);
    }
  }

  /// Processes a received local-infinity list (one merge round), oldest
  /// first, with the space-optimized merge of Algorithm 4: a hit leaves the
  /// stack, so each address ends on exactly one rank. Survivors
  /// (still-unresolved references) are appended to the outgoing queue.
  void process_incoming(std::span<const Addr> records) {
    constexpr std::size_t kAhead = 8;
    const std::size_t n = records.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) stack_.prefetch(records[i + kAhead]);
      const Addr z = records[i];
      if (const Distance newer = stack_.remove(z);
          newer != kInfiniteDistance) {
        // Offset by infinities received so far — distinct elements of the
        // right-hand suffix that are (by design) absent from this rank's
        // stack.
        record(newer + received_count_);
      } else {
        loc_inf_.push_back(z);
      }
      ++received_count_;
    }
  }

  /// The pending local-infinity queue, oldest first (inspection only).
  const std::vector<Addr>& local_infinities() const noexcept {
    return loc_inf_;
  }

  /// Moves out the pending local-infinity queue (to send leftward).
  std::vector<Addr> take_local_infinities() {
    std::vector<Addr> out = std::move(loc_inf_);
    loc_inf_.clear();
    return out;
  }

  /// Rank 0 terminal handling: everything still unresolved is a global
  /// infinity (compulsory miss).
  void flush_global_infinities() {
    hist_.record(kInfiniteDistance, loc_inf_.size());
    loc_inf_.clear();
  }

  /// The resident addresses, least recently referenced first.
  std::vector<Addr> resident_addrs() const { return stack_.addrs(); }

  /// Serializes the resident set (resident_addrs) for the phase reduction
  /// (Algorithm 6), leaving this rank empty with its clock restarted.
  std::vector<Addr> export_state() {
    std::vector<Addr> out = stack_.addrs();
    stack_.clear();
    return out;
  }

  /// Merges the exported state of one rank to the left. The part is older
  /// than everything resident: virtual-rank order is time order, and the
  /// phase holder imports the parts newest first. Its addresses take the
  /// keys just below this rank's oldest key, in order, so no resident entry
  /// is re-keyed and the hash table sees one insert per address. Algorithm
  /// 4 leaves the address sets disjoint (paper Section IV-C), so no
  /// duplicate check is needed — PARDA_DCHECK guards that claim in debug
  /// builds. Under a bound only the part's newest B − resident() addresses
  /// are keyed (none once the rank holds B): anything older has at least B
  /// distinct successors and can never be hit again under the bound.
  void import_state(std::span<const Addr> part) {
    if (bound_ != kUnbounded) {
      const std::uint64_t room = bound_ - resident();
      if (part.size() > room) part = part.last(room);
    }
    stack_.push_older(part);
    note_resident();
    PARDA_DCHECK(bound_ == kUnbounded || resident() <= bound_);
  }

  /// Resets the per-merge-stage received counter (start of each phase).
  void begin_merge_stage() { received_count_ = 0; }

  /// The most dead keys the rank keeps beyond its live ones.
  static constexpr std::uint64_t kKeySlack = 65536;

  /// The stack's key span (OlkenStack::key_span).
  std::uint64_t key_span() const noexcept { return stack_.key_span(); }

  const Histogram& hist() const noexcept { return hist_; }
  Histogram& hist() noexcept { return hist_; }
  std::size_t resident() const noexcept { return stack_.size(); }
  std::uint64_t peak_resident() const noexcept { return peak_resident_; }
  std::uint64_t received_count() const noexcept { return received_count_; }
  std::size_t pending_infinities() const noexcept { return loc_inf_.size(); }
  const AddrMap& table() const noexcept { return stack_.table(); }

 private:
  /// Tallies a resolved distance; under the bound, d >= B is a capacity
  /// miss.
  void record(Distance d) {
    if (bound_ != kUnbounded && d >= bound_) d = kInfiniteDistance;
    hist_.record(d);
  }

  void note_resident() noexcept {
    if (resident() > peak_resident_) peak_resident_ = resident();
  }

  std::uint64_t bound_;
  OlkenStack stack_;
  Histogram hist_;
  std::vector<Addr> loc_inf_;
  std::uint64_t received_count_ = 0;  // 'count' of Algorithm 4
  std::uint64_t peak_resident_ = 0;
};

}  // namespace parda

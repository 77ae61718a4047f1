// AddrMap: an open-addressing robin-hood hash map from Addr to Timestamp.
//
// This is the repository's stand-in for the GLib GHashTable the original
// Parda implementation used: every sequential engine and every Parda rank
// keeps one AddrMap from data address to the timestamp of its most recent
// reference. Robin-hood probing with backward-shift deletion keeps probe
// chains short under the heavy churn (insert + erase per reference) that
// reuse distance analysis generates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/prng.hpp"
#include "util/types.hpp"

namespace parda {

class AddrMap {
 public:
  AddrMap();
  explicit AddrMap(std::size_t initial_capacity);

  AddrMap(const AddrMap&) = default;
  AddrMap(AddrMap&&) noexcept = default;
  AddrMap& operator=(const AddrMap&) = default;
  AddrMap& operator=(AddrMap&&) noexcept = default;

  /// Returns a pointer to the mapped timestamp, or nullptr if absent. The
  /// pointer is invalidated by any mutating call.
  const Timestamp* find(Addr key) const noexcept;
  Timestamp* find(Addr key) noexcept;

  bool contains(Addr key) const noexcept { return find(key) != nullptr; }

  /// Hints the cache to load the key's home slot (the first slot a find()
  /// would inspect). The batched engine paths issue this a few references
  /// ahead of the probe so the robin-hood chain's first line is resident
  /// by the time find() runs. No effect on the map's state or counters.
  void prefetch(Addr key) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t i = static_cast<std::size_t>(mix64(key)) & mask_;
    __builtin_prefetch(slots_.data() + i, /*rw=*/0, /*locality=*/3);
#else
    (void)key;
#endif
  }

  /// Inserts or overwrites. Returns true if the key was newly inserted.
  bool insert_or_assign(Addr key, Timestamp value);

  /// Removes the key; returns true if it was present.
  bool erase(Addr key) noexcept;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return slots_.size(); }
  std::uint64_t bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot);
  }

  void clear() noexcept;
  void reserve(std::size_t n);

  /// Invokes fn(addr, timestamp) for every entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.dib != kEmpty) fn(s.key, s.value);
    }
  }

  /// Longest probe chain currently in the table (diagnostics / tests).
  std::size_t max_probe_length() const noexcept;

  /// Cumulative slot inspections across every find/erase search over the
  /// map's lifetime — the "hash probes" engine stat surfaced by the
  /// observability layer. A plain (non-atomic) counter: AddrMap is
  /// single-threaded per rank.
  std::uint64_t probe_count() const noexcept { return probes_; }

 private:
  // dib is 16-bit with 0xFFFF as the empty sentinel. The previous 8-bit
  // encoding made a probe chain of length 255 indistinguishable from
  // "empty" (an adversarial set of same-bucket keys silently corrupted the
  // table); 16 bits cost nothing (the slot is padded to 24 bytes either
  // way) and kGrowProbeLimit additionally forces a rehash long before the
  // sentinel could be reached.
  static constexpr std::uint16_t kEmpty = 0xFFFF;
  /// Inserting a chain that probes this far triggers an early grow(): a
  /// doubled table splits every bucket's chain, keeping probes short even
  /// for adversarial same-bucket key sets.
  static constexpr std::uint16_t kGrowProbeLimit = 255;
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    Addr key = 0;
    Timestamp value = 0;
    std::uint16_t dib = kEmpty;  // distance from ideal bucket
  };

  std::size_t bucket_of(Addr key) const noexcept;
  void grow();
  /// Returns the longest probe distance written while placing the entry.
  std::uint16_t insert_fresh(Addr key, Timestamp value);

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  mutable std::uint64_t probes_ = 0;
};

}  // namespace parda

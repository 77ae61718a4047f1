#include "hash/addr_map.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/prng.hpp"

namespace parda {

AddrMap::AddrMap() : AddrMap(kMinCapacity) {}

AddrMap::AddrMap(std::size_t initial_capacity) {
  std::size_t cap = kMinCapacity;
  while (cap < initial_capacity) cap <<= 1;
  slots_.resize(cap);
  mask_ = cap - 1;
}

std::size_t AddrMap::bucket_of(Addr key) const noexcept {
  return static_cast<std::size_t>(mix64(key)) & mask_;
}

const Timestamp* AddrMap::find(Addr key) const noexcept {
  std::size_t i = bucket_of(key);
  std::uint16_t dib = 0;
  while (true) {
    ++probes_;
    const Slot& s = slots_[i];
    if (s.dib == kEmpty || s.dib < dib) return nullptr;
    if (s.dib == dib && s.key == key) return &s.value;
    i = (i + 1) & mask_;
    ++dib;
  }
}

Timestamp* AddrMap::find(Addr key) noexcept {
  return const_cast<Timestamp*>(std::as_const(*this).find(key));
}

bool AddrMap::insert_or_assign(Addr key, Timestamp value) {
  if (Timestamp* existing = find(key)) {
    *existing = value;
    return false;
  }
  if ((size_ + 1) * 4 > slots_.size() * 3) grow();
  const std::uint16_t probed = insert_fresh(key, value);
  ++size_;
  // A pathological chain (same-bucket key set) saturates probe distances
  // long before the load factor trips: rehash early so the doubled mask
  // splits the bucket. Repeated inserts re-trigger this until chains are
  // short, and the 16-bit dib keeps correctness in the meantime.
  if (probed >= kGrowProbeLimit) grow();
  return true;
}

std::uint16_t AddrMap::insert_fresh(Addr key, Timestamp value) {
  Slot incoming{key, value, 0};
  std::uint16_t longest = 0;
  std::size_t i = bucket_of(key);
  while (true) {
    Slot& s = slots_[i];
    if (s.dib == kEmpty) {
      s = incoming;
      return std::max(longest, incoming.dib);
    }
    if (s.dib < incoming.dib) std::swap(s, incoming);
    i = (i + 1) & mask_;
    PARDA_CHECK(incoming.dib != kEmpty - 1);  // probe chain overflow
    ++incoming.dib;
    longest = std::max(longest, incoming.dib);
  }
}

bool AddrMap::erase(Addr key) noexcept {
  std::size_t i = bucket_of(key);
  std::uint16_t dib = 0;
  while (true) {
    ++probes_;
    Slot& s = slots_[i];
    if (s.dib == kEmpty || s.dib < dib) return false;
    if (s.dib == dib && s.key == key) break;
    i = (i + 1) & mask_;
    ++dib;
  }
  // Backward-shift deletion: slide successors with dib > 0 left one slot.
  std::size_t hole = i;
  while (true) {
    const std::size_t next = (hole + 1) & mask_;
    Slot& n = slots_[next];
    if (n.dib == kEmpty || n.dib == 0) break;
    slots_[hole] = n;
    --slots_[hole].dib;
    hole = next;
  }
  slots_[hole].dib = kEmpty;
  --size_;
  return true;
}

void AddrMap::clear() noexcept {
  for (Slot& s : slots_) s.dib = kEmpty;
  size_ = 0;
}

void AddrMap::reserve(std::size_t n) {
  std::size_t needed = kMinCapacity;
  while (needed * 3 < n * 4) needed <<= 1;
  if (needed <= slots_.size()) return;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(needed, Slot{});
  mask_ = needed - 1;
  size_ = 0;
  for (const Slot& s : old) {
    if (s.dib != kEmpty) {
      insert_fresh(s.key, s.value);
      ++size_;
    }
  }
}

void AddrMap::grow() { reserve(slots_.size() * 2); }

std::size_t AddrMap::max_probe_length() const noexcept {
  std::uint16_t longest = 0;
  for (const Slot& s : slots_) {
    if (s.dib != kEmpty) longest = std::max(longest, s.dib);
  }
  return longest;
}

}  // namespace parda

// The order-statistic tree interface shared by all Parda tree engines.
//
// A tree holds one entry per *distinct* data address currently tracked,
// keyed by the time of that address's most recent reference (a trace
// position, or a Parda rank's own clock: any key whose order is time
// order), with subtree weights so that "how many distinct addresses were
// referenced after time t" — the reuse distance query of Algorithm 2 in
// the paper — resolves in O(log size) node visits.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>

#include "util/types.hpp"

namespace parda {

/// One tree entry: a distinct address and its last-reference time.
struct TreeEntry {
  Timestamp ts;
  Addr addr;

  friend bool operator==(const TreeEntry&, const TreeEntry&) = default;
};

/// Concept satisfied by FenwickIndex (which needs dense keys, see
/// tree/fenwick.hpp), the index of the Olken stack, and by the reference
/// library's pointer trees (reference/), which its tree_olken_analysis
/// runs olken_step over for bench/ and tests/.
///
/// Semantics:
///  - insert(ts, addr): ts must not already be present.
///  - erase(ts): removes the entry with that timestamp; false if absent.
///  - count_greater(ts): number of entries with timestamp strictly greater
///    than ts; ts need not be present. Non-const because the splay engine
///    restructures on every query.
///  - oldest()/pop_oldest(): the entry with the minimum timestamp — the LRU
///    victim used by the bounded algorithm (Algorithm 7).
template <typename T>
concept OrderStatTree = requires(T t, const T ct, Timestamp ts, Addr a) {
  { t.insert(ts, a) } -> std::same_as<void>;
  { t.erase(ts) } -> std::same_as<bool>;
  { t.count_greater(ts) } -> std::convertible_to<std::uint64_t>;
  { ct.size() } -> std::convertible_to<std::size_t>;
  { ct.empty() } -> std::same_as<bool>;
  { ct.oldest() } -> std::same_as<TreeEntry>;
  { t.pop_oldest() } -> std::same_as<TreeEntry>;
  { t.clear() } -> std::same_as<void>;
  { ct.validate() } -> std::same_as<bool>;
};

}  // namespace parda

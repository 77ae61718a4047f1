// Fundamental scalar types shared across the Parda library.
#pragma once

#include <cstdint>
#include <limits>

namespace parda {

/// A memory address (or abstract data-element identifier) in a reference
/// trace. The paper's traces are word-granularity addresses produced by Pin;
/// any 64-bit identifier works.
using Addr = std::uint64_t;

/// Logical time: the position of a reference within the (global) trace.
using Timestamp = std::uint64_t;

/// Reuse distance. `kInfiniteDistance` marks a first reference (compulsory
/// miss); finite values count distinct intervening addresses.
using Distance = std::uint64_t;

inline constexpr Distance kInfiniteDistance =
    std::numeric_limits<Distance>::max();

/// Sentinel for "no timestamp" in hash tables and trees.
inline constexpr Timestamp kNoTimestamp =
    std::numeric_limits<Timestamp>::max();

/// Cache bound B of Algorithm 7 meaning "no bound": the engines that take
/// a bound (OlkenAnalyzer, RankState, PardaOptions) run unbounded.
inline constexpr std::uint64_t kUnbounded = 0;

}  // namespace parda

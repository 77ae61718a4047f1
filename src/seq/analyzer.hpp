// The unified sequential-engine API: every reuse distance engine — Olken
// (bounded or not), BennettKruskal, FixedSizeSampler and LruChain here,
// and the reference library's Naive and Interval oracles (reference/) —
// conforms to the ReuseAnalyzer concept below (checked by static_asserts
// at the bottom of each engine header), so drivers, benches, tests and
// the observability layer talk to all six through one shape:
//
//   analyzer.process(addr);   // one reference (may defer work, e.g. B&K)
//   analyzer.finish();        // flush deferred work; idempotent
//   analyzer.histogram();     // the result (valid after finish())
//   analyzer.stats();         // structural counters for the metrics layer
//
// The distance-returning access() members remain on the engines that can
// answer online; process() is the portable surface (Bennett & Kruskal is
// two-pass and cannot return distances online, which is why the concept is
// built around process/finish rather than access).
//
// Batched surface: engines may additionally expose
//
//   analyzer.process_block(std::span<const Addr>);
//
// (the BlockReuseAnalyzer refinement). The free process_block() below
// dispatches to it when present and falls back to the per-reference loop
// otherwise, so drivers always hand blocks down and engines that can
// software-prefetch their hash probes (LruChain, Olken, Interval) amortize
// per-reference dispatch overhead.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "hist/histogram.hpp"
#include "obs/metrics.hpp"
#include "util/types.hpp"

namespace parda {

/// Structural work counters every engine can report. Fields an engine
/// cannot measure stay 0 (the naive stack has no hash table; only bounded
/// engines evict).
struct EngineStats {
  std::uint64_t references = 0;      // process() calls
  std::uint64_t finite = 0;          // finite distances in histogram()
  std::uint64_t infinities = 0;      // infinity bin of histogram()
  std::uint64_t hash_probes = 0;     // AddrMap slot inspections
  std::uint64_t evictions = 0;       // LRU evictions (bounded engines)
  std::uint64_t marker_hops = 0;     // log2-marker slides (LruChain)
  std::uint64_t peak_footprint = 0;  // max distinct addresses tracked

  /// Publishes under "<prefix>.references", "<prefix>.hash_probes", ...,
  /// attributed to the calling thread's rank shard.
  void publish(obs::Registry& reg, std::string_view prefix) const {
    const auto name = [prefix](std::string_view field) {
      return std::string(prefix).append(".").append(field);
    };
    reg.counter(name("references")).add(references);
    reg.counter(name("finite")).add(finite);
    reg.counter(name("infinities")).add(infinities);
    reg.counter(name("hash_probes")).add(hash_probes);
    reg.counter(name("evictions")).add(evictions);
    reg.counter(name("marker_hops")).add(marker_hops);
    reg.gauge(name("peak_footprint")).set_max(peak_footprint);
  }
};

/// The engine concept. histogram() contents are only final after finish();
/// finish() must be idempotent and process() must not be called after it.
template <typename A>
concept ReuseAnalyzer = requires(A a, const A ca, Addr z) {
  { a.process(z) } -> std::same_as<void>;
  { a.finish() } -> std::same_as<void>;
  { ca.histogram() } -> std::same_as<const Histogram&>;
  { ca.stats() } -> std::same_as<EngineStats>;
};

/// Refinement for engines with a native batched surface. process_block(b)
/// must be exactly equivalent to calling process(z) for each z of b in
/// order — it exists so the engine can software-prefetch its hash probes
/// a few references ahead and skip per-call overhead, not to change
/// results (the equivalence is property-tested per engine).
template <typename A>
concept BlockReuseAnalyzer =
    ReuseAnalyzer<A> && requires(A a, std::span<const Addr> block) {
      { a.process_block(block) } -> std::same_as<void>;
    };

/// Block dispatch: the batched entry every driver funnels through. Uses
/// the engine's native process_block when it has one, else the per-
/// reference loop.
template <ReuseAnalyzer A>
void process_block(A& analyzer, std::span<const Addr> block) {
  if constexpr (BlockReuseAnalyzer<A>) {
    analyzer.process_block(block);
  } else {
    for (Addr z : block) analyzer.process(z);
  }
}

/// Runs a whole trace through any conforming engine and returns the
/// finished histogram (the one-liner behind the per-engine *_analysis
/// convenience functions). Dispatches the trace as one block so engines
/// with a batched surface get their prefetched path.
template <ReuseAnalyzer A>
Histogram analyze_trace(A& analyzer, std::span<const Addr> trace) {
  process_block(analyzer, trace);
  analyzer.finish();
  return analyzer.histogram();
}

}  // namespace parda

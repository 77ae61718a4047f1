#include "apps/shared_cache.hpp"

#include "hist/mrc.hpp"
#include "seq/olken.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace parda {

InterleavedTrace interleave_traces(
    const std::vector<std::vector<Addr>>& streams, InterleavePolicy policy,
    std::uint64_t seed) {
  InterleavedTrace out;
  std::size_t total = 0;
  for (const auto& s : streams) total += s.size();
  out.addresses.reserve(total);
  out.origin.reserve(total);

  std::vector<std::size_t> cursor(streams.size(), 0);
  Xoshiro256 rng(seed);

  if (policy == InterleavePolicy::kRoundRobin) {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t k = 0; k < streams.size(); ++k) {
        if (cursor[k] < streams[k].size()) {
          out.addresses.push_back(streams[k][cursor[k]++]);
          out.origin.push_back(static_cast<std::uint32_t>(k));
          progressed = true;
        }
      }
    }
  } else {
    std::vector<std::size_t> live;
    for (std::size_t k = 0; k < streams.size(); ++k) {
      if (!streams[k].empty()) live.push_back(k);
    }
    while (!live.empty()) {
      const std::size_t pick = rng.below(live.size());
      const std::size_t k = live[pick];
      out.addresses.push_back(streams[k][cursor[k]++]);
      out.origin.push_back(static_cast<std::uint32_t>(k));
      if (cursor[k] == streams[k].size()) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
  }
  return out;
}

SharedCacheAnalysis analyze_shared_cache(
    const std::vector<std::vector<Addr>>& streams, InterleavePolicy policy,
    std::uint64_t seed) {
  SharedCacheAnalysis analysis;
  analysis.shared_view.resize(streams.size());
  analysis.solo_view.resize(streams.size());

  const InterleavedTrace mix = interleave_traces(streams, policy, seed);
  OlkenAnalyzer analyzer;
  for (std::size_t i = 0; i < mix.addresses.size(); ++i) {
    const Distance d = analyzer.access(mix.addresses[i]);
    analysis.combined.record(d);
    analysis.shared_view[mix.origin[i]].record(d);
  }
  for (std::size_t k = 0; k < streams.size(); ++k) {
    analysis.solo_view[k] = olken_analysis(streams[k]);
  }
  return analysis;
}

std::uint64_t SharedCacheAnalysis::shared_misses(std::size_t k,
                                                 std::uint64_t cache) const {
  PARDA_CHECK(k < shared_view.size());
  return miss_count(shared_view[k], cache);
}

std::uint64_t SharedCacheAnalysis::solo_misses(std::size_t k,
                                               std::uint64_t cache) const {
  PARDA_CHECK(k < solo_view.size());
  return miss_count(solo_view[k], cache);
}

double SharedCacheAnalysis::contention_factor(std::size_t k,
                                              std::uint64_t cache) const {
  const std::uint64_t solo = solo_misses(k, cache);
  if (solo == 0) {
    return shared_misses(k, cache) == 0 ? 1.0 : 1e9;
  }
  return static_cast<double>(shared_misses(k, cache)) /
         static_cast<double>(solo);
}

}  // namespace parda

// Ablation A2: space-optimized local-infinity processing (Algorithm 4)
// versus the unoptimized Algorithm 3. Measures run time and, by driving
// the rank states directly, the aggregate tree residency after the merge —
// the paper's O(np * M) vs O(M) claim (Section IV-C).
#include <cstdio>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "core/parda.hpp"
#include "core/rank_state.hpp"
#include "seq/olken.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/spec.hpp"

namespace parda::bench {
namespace {

/// Emulates the full offline pipeline on one thread and reports the
/// aggregate resident tree entries across all ranks after the merge.
std::uint64_t aggregate_residency(const std::vector<Addr>& trace, int np,
                                  bool space_optimized) {
  std::vector<RankState> ranks;
  ranks.reserve(static_cast<std::size_t>(np));
  for (int p = 0; p < np; ++p) {
    ranks.emplace_back(kUnbounded, space_optimized);
  }
  const std::size_t chunk =
      (trace.size() + static_cast<std::size_t>(np) - 1) /
      static_cast<std::size_t>(np);
  for (int p = 0; p < np; ++p) {
    const std::size_t lo = std::min(static_cast<std::size_t>(p) * chunk,
                                    trace.size());
    const std::size_t hi = std::min(lo + chunk, trace.size());
    ranks[static_cast<std::size_t>(p)].process_own_block(
        std::span<const Addr>(trace.data() + lo, hi - lo));
  }
  // Pass infinities leftward round by round, exactly Algorithm 3's loop:
  // rank p participates in rounds 0 .. np-p-1, sending first, then
  // processing what its right neighbour sent in the same round.
  for (int round = 0; round < np; ++round) {
    std::vector<std::vector<Addr>> sent(static_cast<std::size_t>(np));
    for (int p = 0; p < np; ++p) {
      if (round >= np - p) continue;
      auto& rank = ranks[static_cast<std::size_t>(p)];
      if (p == 0) {
        rank.flush_global_infinities();
      } else {
        sent[static_cast<std::size_t>(p)] = rank.take_local_infinities();
      }
    }
    for (int p = 0; p + 1 < np; ++p) {
      if (round < np - p - 1) {
        ranks[static_cast<std::size_t>(p)].process_incoming(
            sent[static_cast<std::size_t>(p + 1)]);
      }
    }
  }
  std::uint64_t resident = 0;
  for (const auto& rank : ranks) resident += rank.resident();
  return resident;
}

}  // namespace
}  // namespace parda::bench

int main() {
  using namespace parda;
  using namespace parda::bench;

  const std::uint64_t scale = spec_scale();
  const std::uint64_t maxrefs = env_u64("PARDA_BENCH_MAXREFS", 1'000'000);

  auto workload = make_spec_workload("perlbench", scale, /*seed=*/1);
  const std::uint64_t n =
      std::min<std::uint64_t>(spec_profile("perlbench").scaled_n(scale),
                              maxrefs);
  const std::vector<Addr> trace = take_trace(*workload, n);
  const Histogram reference = olken_analysis(trace);
  const std::uint64_t m = reference.infinities();

  std::printf(
      "Space-optimization ablation (Section IV-C), perlbench profile, "
      "N=%s, M=%s\n\n",
      with_commas(n).c_str(), with_commas(m).c_str());

  TablePrinter table({"np", "mode", "time (s)", "aggregate resident",
                      "resident / M"});
  for (int np : {2, 4, 8, 16}) {
    for (const bool opt : {false, true}) {
      PardaOptions options;
      options.num_procs = np;
      options.space_optimized = opt;
      WallTimer t;
      const PardaResult result = parda_analyze(trace, options);
      const double elapsed = t.seconds();
      if (!(result.hist == reference)) {
        std::fprintf(stderr, "MISMATCH np=%d opt=%d\n", np, opt);
        return 1;
      }
      const std::uint64_t resident = aggregate_residency(trace, np, opt);
      table.add_row({std::to_string(np),
                     opt ? "optimized (Alg.4)" : "plain (Alg.3)",
                     TablePrinter::fmt(elapsed, 3), with_commas(resident),
                     TablePrinter::fmt(static_cast<double>(resident) /
                                           static_cast<double>(m),
                                       2)});
    }
  }
  table.print();
  std::printf(
      "\npaper claim: plain aggregate residency grows ~O(np*M); optimized "
      "stays O(M) (each address on exactly one rank)\n");
  return 0;
}

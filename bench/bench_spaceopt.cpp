// Ablation A2: space-optimized local-infinity processing (Algorithm 4)
// versus the unoptimized Algorithm 3. The engine runs Algorithm 4 only, so
// the bench emulates both merges by driving the rank states directly on one
// thread, and reports their time and the aggregate tree residency after
// the merge — the paper's O(np * M) vs O(M) claim (Section IV-C). It exits
// 1 unless, at every np, both emulations and the engine reproduce the
// sequential histogram and both residencies are the ones Property 4.3
// predicts.
#include <cstdio>
#include <span>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "core/parda.hpp"
#include "core/rank_state.hpp"
#include "seq/olken.hpp"
#include "trace/source.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/spec.hpp"

namespace parda::bench {
namespace {

struct Emulation {
  Histogram hist;              // merged over the ranks
  std::uint64_t resident = 0;  // aggregate tree entries after the merge
};

/// Emulates the offline pipeline on one thread over the engine's own split
/// (`split`, partitioned for np). The optimized merge resolves each
/// received list with Algorithm 4 (process_incoming); the plain merge
/// replays it as references of the receiving rank (process_own_block),
/// which is unoptimized Algorithm 3.
Emulation emulate(SpanTraceSource& split, int np, bool optimized) {
  std::vector<RankState> ranks(static_cast<std::size_t>(np));
  for (int p = 0; p < np; ++p) {
    ranks[static_cast<std::size_t>(p)].process_own_block(split.rank_view(p));
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
      if (round >= np - p - 1) continue;
      auto& rank = ranks[static_cast<std::size_t>(p)];
      const std::vector<Addr>& incoming = sent[static_cast<std::size_t>(p + 1)];
      if (optimized) {
        rank.process_incoming(incoming);
      } else {
        rank.process_own_block(incoming);
      }
    }
  }
  Emulation out;
  for (const RankState& rank : ranks) {
    out.hist.merge(rank.hist());
    out.resident += rank.resident();
  }
  return out;
}

/// The plain merge's residency by Property 4.3: rank p ends holding every
/// distinct address of the trace from its chunk to the end. It is np * M
/// only when every chunk touches every address.
std::uint64_t plain_residency(std::span<const Addr> trace,
                              SpanTraceSource& split, int np) {
  std::uint64_t sum = 0;
  std::unordered_set<Addr> seen;
  std::size_t at = trace.size();
  for (int p = np - 1; p >= 0; --p) {
    const auto begin =
        static_cast<std::size_t>(split.rank_view(p).data() - trace.data());
    for (; at > begin; --at) seen.insert(trace[at - 1]);
    sum += seen.size();
  }
  return sum;
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

  bool ok = true;
  SpanTraceSource split(trace);
  TablePrinter table({"np", "mode", "time (s)", "aggregate resident",
                      "resident / M"});
  for (int np : {2, 4, 8, 16}) {
    PardaOptions options;
    options.num_procs = np;
    if (!(parda_analyze(trace, options).hist == reference)) {
      std::fprintf(stderr, "MISMATCH np=%d engine histogram\n", np);
      ok = false;
    }
    split.partition(np);
    for (const bool optimized : {false, true}) {
      WallTimer t;
      const Emulation e = emulate(split, np, optimized);
      const double elapsed = t.seconds();
      const std::uint64_t want =
          optimized ? m : plain_residency(trace, split, np);
      const char* mode = optimized ? "optimized (Alg.4)" : "plain (Alg.3)";
      if (!(e.hist == reference)) {
        std::fprintf(stderr, "MISMATCH np=%d %s histogram\n", np, mode);
        ok = false;
      }
      if (e.resident != want) {
        std::fprintf(stderr, "MISMATCH np=%d %s residency %llu, want %llu\n",
                     np, mode, static_cast<unsigned long long>(e.resident),
                     static_cast<unsigned long long>(want));
        ok = false;
      }
      table.add_row({std::to_string(np), mode, TablePrinter::fmt(elapsed, 3),
                     with_commas(e.resident),
                     TablePrinter::fmt(static_cast<double>(e.resident) /
                                           static_cast<double>(m),
                                       2)});
    }
  }
  table.print();
  std::printf(
      "\npaper claim: plain aggregate residency grows ~O(np*M), here exactly "
      "sum_p |distinct(trace from chunk p on)|;\noptimized stays M (each "
      "address on exactly one rank). time: each merge emulated on one "
      "thread\n");
  return ok ? 0 : 1;
}

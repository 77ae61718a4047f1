// Reproduces Figure 5(b): per-benchmark slowdown factor while varying the
// processor count (8..64) at a fixed 512Kw cache bound and 64Mw pipe.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/spec.hpp"

int main() {
  using namespace parda;
  using namespace parda::bench;

  const std::uint64_t scale = spec_scale();
  const std::uint64_t maxrefs = env_u64("PARDA_BENCH_MAXREFS", 1'000'000);
  const std::size_t pipe_words = scaled_bound(64ULL << 20);
  const std::uint64_t bound = scaled_bound(512ULL << 10);

  std::printf(
      "Figure 5(b) reproduction: slowdown vs processors, fixed bound %s "
      "and %s pipe (scale 1/%llu)\n\n",
      words_human(bound).c_str(), words_human(pipe_words).c_str(),
      static_cast<unsigned long long>(scale));

  TablePrinter table({"benchmark", "p8", "p16", "p32", "p64", "speedup"});
  std::vector<double> speedups;
  for (const SpecProfile& profile : spec_profiles()) {
    auto workload = make_spec_workload(profile, scale, /*seed=*/1);
    const std::uint64_t n =
        std::min<std::uint64_t>(profile.scaled_n(scale), maxrefs);
    const double orig = measure_orig(*workload, n);
    const std::vector<Addr> trace = take_trace(*workload, n);
    std::vector<std::string> row{std::string(profile.name)};
    double first = 0;
    double last = 0;
    for (std::uint64_t np : kRankSweep) {
      const double crit = measure_parda_crit(trace, static_cast<int>(np),
                                             bound, pipe_words);
      if (np == kRankSweep[0]) first = crit;
      last = crit;
      row.push_back(TablePrinter::fmt(crit / std::max(orig, 1e-9), 1) + "x");
    }
    const double speedup = first / std::max(last, 1e-9);
    speedups.push_back(speedup);
    row.push_back(TablePrinter::fmt(speedup, 2) + "x");
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\naverage 8->64 rank speedup (critical path): %.2fx; paper reports "
      "an average over 3.5x with diminishing returns as ranks are added\n",
      geomean(speedups));
  return 0;
}

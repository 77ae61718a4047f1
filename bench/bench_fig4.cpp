// Reproduces Figure 4: MCF slowdown factor as the number of processors
// varies (8..64) for cache bounds 512Kw..4Mw (scaled), fixed 64Mw pipe.
// The y-axis quantity is Parda critical-path time / original runtime.
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
  const std::uint64_t maxrefs = env_u64("PARDA_BENCH_MAXREFS", 2'000'000);
  const std::size_t pipe_words = scaled_bound(64ULL << 20);

  const SpecProfile& mcf = spec_profile("mcf");
  auto workload = make_spec_workload(mcf, scale, /*seed=*/1);
  const std::uint64_t n = std::min<std::uint64_t>(mcf.scaled_n(scale),
                                                  maxrefs);
  const double orig = measure_orig(*workload, n);
  const std::vector<Addr> trace = take_trace(*workload, n);

  const std::uint64_t paper_bounds[] = {512ULL << 10, 1ULL << 20, 2ULL << 20,
                                        4ULL << 20};

  std::printf(
      "Figure 4 reproduction: MCF slowdown factor vs processors, fixed "
      "%s pipe (scale 1/%llu, N=%s, orig=%.3fs)\n"
      "slowdown = busiest-rank critical path / orig\n\n",
      words_human(pipe_words).c_str(),
      static_cast<unsigned long long>(scale), with_commas(n).c_str(), orig);

  TablePrinter table(
      {"processors", "512Kw", "1Mw", "2Mw", "4Mw"});
  for (std::uint64_t np : kRankSweep) {
    std::vector<std::string> row{std::to_string(np)};
    for (std::uint64_t paper_bound : paper_bounds) {
      const double crit = measure_parda_crit(
          trace, static_cast<int>(np), scaled_bound(paper_bound),
          pipe_words);
      row.push_back(TablePrinter::fmt(crit / std::max(orig, 1e-9), 1) + "x");
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\npaper shape: performance improves with smaller bounds; ~3.3x "
      "speedup from 8 to 64 processors\n");
  return 0;
}

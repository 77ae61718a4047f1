// Reproduces Figure 5(a): per-benchmark slowdown factor while varying the
// cache bound (512Kw..4Mw scaled) at a fixed processor count and 64Mw pipe.
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
  const int np = static_cast<int>(env_u64("PARDA_BENCH_PROCS", 8));
  const std::uint64_t maxrefs = env_u64("PARDA_BENCH_MAXREFS", 1'000'000);
  const std::size_t pipe_words = scaled_bound(64ULL << 20);
  const std::uint64_t paper_bounds[] = {512ULL << 10, 1ULL << 20, 2ULL << 20,
                                        4ULL << 20};

  std::printf(
      "Figure 5(a) reproduction: slowdown vs cache bound, fixed np=%d and "
      "%s pipe (scale 1/%llu)\n\n",
      np, words_human(pipe_words).c_str(),
      static_cast<unsigned long long>(scale));

  TablePrinter table({"benchmark", "512Kw", "1Mw", "2Mw", "4Mw"});
  for (const SpecProfile& profile : spec_profiles()) {
    auto workload = make_spec_workload(profile, scale, /*seed=*/1);
    const std::uint64_t n =
        std::min<std::uint64_t>(profile.scaled_n(scale), maxrefs);
    const double orig = measure_orig(*workload, n);
    const std::vector<Addr> trace = take_trace(*workload, n);
    std::vector<std::string> row{std::string(profile.name)};
    for (std::uint64_t paper_bound : paper_bounds) {
      const double crit = measure_parda_crit(trace, np,
                                             scaled_bound(paper_bound),
                                             pipe_words);
      row.push_back(TablePrinter::fmt(crit / std::max(orig, 1e-9), 1) + "x");
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\npaper shape: larger bounds generally deteriorate performance "
      "slightly (bigger trees), with occasional reversals from replacement "
      "overhead\n");
  return 0;
}

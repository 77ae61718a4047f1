// Quickstart: generate a workload, run parallel reuse distance analysis,
// and print the histogram and the miss-ratio curve it implies.
//
//   ./quickstart --workload=mcf --refs=200000 --procs=4 --bound=0
#include <cstdio>
#include <string>

#include "core/parda.hpp"
#include "hist/mrc.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/spec.hpp"

int main(int argc, char** argv) {
  using namespace parda;

  std::string workload_name = "mcf";
  std::uint64_t refs = 200000;
  int procs = 4;
  std::uint64_t bound = 0;
  std::uint64_t scale = kDefaultSpecScale;

  CliParser cli("Parda quickstart: analyze one SPEC-like workload");
  cli.add_flag("workload", &workload_name,
               "SPEC profile name (perlbench..sphinx3)");
  cli.add_flag("refs", &refs, "trace length to analyze");
  cli.add_flag("procs", &procs, "number of analysis ranks");
  cli.add_flag("bound", &bound, "cache bound B in words (0 = unbounded)");
  cli.add_flag("scale", &scale, "SPEC footprint down-scaling factor");
  cli.parse(argc, argv);

  auto workload = make_spec_workload(workload_name, scale, /*seed=*/1);
  std::printf("workload: %s (%s)\n", workload_name.c_str(),
              workload->name().c_str());
  const auto trace = generate_trace(*workload, refs);

  PardaOptions options;
  options.num_procs = procs;
  options.bound = bound;
  const PardaResult result = parda_analyze(trace, options);
  const Histogram& hist = result.hist;

  std::printf("references analyzed: %s\n",
              with_commas(hist.total()).c_str());
  std::printf("distinct addresses (compulsory misses): %s\n",
              with_commas(hist.infinities()).c_str());
  std::printf("max finite reuse distance: %s\n",
              with_commas(hist.max_distance()).c_str());
  std::printf("rank work: max %.3fs, total %.3fs across %d ranks\n\n",
              result.stats.max_busy(), result.stats.total_busy(),
              options.num_procs);

  std::printf("reuse distance histogram (log2 buckets):\n");
  const auto buckets = hist.log2_buckets();
  TablePrinter hist_table({"bucket", "distances", "references", "share"});
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const std::uint64_t lo = i == 0 ? 0 : 1ULL << (i - 1);
    const std::uint64_t hi = i == 0 ? 0 : (1ULL << i) - 1;
    hist_table.add_row(
        {std::to_string(i),
         i == 0 ? "0" : "[" + with_commas(lo) + ", " + with_commas(hi) + "]",
         with_commas(buckets[i]),
         TablePrinter::fmt(100.0 * static_cast<double>(buckets[i]) /
                               static_cast<double>(hist.total()),
                           2) +
             "%"});
  }
  hist_table.add_row({"inf", "first references", with_commas(hist.infinities()),
                      TablePrinter::fmt(100.0 *
                                            static_cast<double>(
                                                hist.infinities()) /
                                            static_cast<double>(hist.total()),
                                        2) +
                          "%"});
  hist_table.print();

  std::printf("\nmiss-ratio curve:\n");
  TablePrinter mrc_table({"cache size", "miss ratio"});
  for (const MrcPoint& p :
       miss_ratio_curve_pow2(hist, hist.max_distance() + 2)) {
    mrc_table.add_row(
        {words_human(p.cache_size), TablePrinter::fmt(p.miss_ratio, 4)});
  }
  mrc_table.print();
  return 0;
}

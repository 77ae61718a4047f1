// Miss-rate prediction across cache sizes (the Zhong et al. application
// from the paper's introduction): one reuse distance analysis predicts the
// miss ratio of every cache size; validated against exact LRU simulation
// and a realistic 8-way set-associative cache.
//
//   ./miss_rate_prediction --workload=sphinx3 --refs=150000
#include <cstdio>
#include <string>

#include "apps/miss_rate.hpp"
#include "core/parda.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/spec.hpp"

int main(int argc, char** argv) {
  using namespace parda;

  std::string workload_name = "sphinx3";
  std::uint64_t refs = 150000;
  int procs = 4;
  std::uint64_t ways = 8;
  std::uint64_t scale = kDefaultSpecScale;

  CliParser cli(
      "Predict LRU miss rates from one reuse distance histogram and "
      "validate against cache simulation");
  cli.add_flag("workload", &workload_name, "SPEC profile name");
  cli.add_flag("refs", &refs, "trace length");
  cli.add_flag("procs", &procs, "analysis ranks");
  cli.add_flag("ways", &ways, "set-associative ways for the comparison");
  cli.add_flag("scale", &scale, "SPEC footprint down-scaling factor");
  cli.parse(argc, argv);

  auto workload = make_spec_workload(workload_name, scale, /*seed=*/2);
  const auto trace = generate_trace(*workload, refs);

  PardaOptions options;
  options.num_procs = procs;
  const Histogram hist = parda_analyze(trace, options).hist;

  std::vector<std::uint64_t> sizes;
  for (std::uint64_t c = 16; c <= hist.max_distance() * 2 + 16; c *= 4) {
    sizes.push_back(c);
  }
  const auto report = predict_miss_rates(trace, hist, sizes,
                                         static_cast<std::uint32_t>(ways));

  std::printf("workload %s, %s references, %s distinct\n\n",
              workload_name.c_str(), with_commas(hist.total()).c_str(),
              with_commas(hist.infinities()).c_str());
  TablePrinter table({"cache", "predicted", "LRU sim", "abs err",
                      std::to_string(ways) + "-way sim"});
  for (const MissRateReport& row : report) {
    table.add_row({words_human(row.cache_words),
                   TablePrinter::fmt(row.predicted, 4),
                   TablePrinter::fmt(row.simulated_lru, 4),
                   TablePrinter::fmt(
                       std::abs(row.predicted - row.simulated_lru), 6),
                   TablePrinter::fmt(row.simulated_set_assoc, 4)});
  }
  table.print();
  std::printf(
      "\nmean |predicted - LRU| = %.6f (exact by construction; Section I "
      "claim (1))\n",
      lru_prediction_error(report));
  return 0;
}

// Ablation A7: sampling-based approximation vs exact analysis — the
// accuracy/speed trade-off of the approximate family ([4][19][15]) that
// Parda is designed to avoid, and the composition of both (Section VII).
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/parda.hpp"
#include "hist/mrc.hpp"
#include "seq/fixed_size_sampler.hpp"
#include "seq/olken.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/spec.hpp"

int main() {
  using namespace parda;
  using namespace parda::bench;

  const std::uint64_t scale = spec_scale();
  const std::uint64_t maxrefs = env_u64("PARDA_BENCH_MAXREFS", 1'000'000);
  const int np = static_cast<int>(env_u64("PARDA_BENCH_PROCS", 8));

  auto workload = make_spec_workload("perlbench", scale, /*seed=*/1);
  const std::uint64_t n = std::min<std::uint64_t>(
      spec_profile("perlbench").scaled_n(scale), maxrefs);
  const std::vector<Addr> trace = take_trace(*workload, n);

  WallTimer t0;
  const Histogram exact = olken_analysis(trace);
  const double exact_time = t0.seconds();

  std::printf(
      "Sampling ablation, perlbench profile, N=%s, M=%s\n"
      "exact sequential analysis: %.3fs\n\n",
      with_commas(n).c_str(), with_commas(exact.infinities()).c_str(),
      exact_time);

  auto mrc_error = [&](const Histogram& approx) {
    double worst = 0.0;
    for (std::uint64_t c = 16; c <= exact.max_distance() + 16; c *= 2) {
      worst = std::max(worst,
                       std::abs(miss_ratio(exact, c) - miss_ratio(approx, c)));
    }
    return worst;
  };

  TablePrinter table({"rate", "mode", "time (s)", "speedup", "max MRC err"});
  for (const double rate : {0.5, 0.2, 0.1, 0.05, 0.01}) {
    {
      WallTimer t;
      const Histogram h = sampled_analysis(trace, rate, 3);
      const double elapsed = t.seconds();
      table.add_row({TablePrinter::fmt(rate, 2), "sampled sequential",
                     TablePrinter::fmt(elapsed, 3),
                     TablePrinter::fmt(exact_time / elapsed, 1) + "x",
                     TablePrinter::fmt(mrc_error(h), 4)});
    }
    {
      PardaOptions options;
      options.num_procs = np;
      WallTimer t;
      const Histogram h = sampled_parda_analysis(trace, rate, options, 3);
      const double elapsed = t.seconds();
      table.add_row({TablePrinter::fmt(rate, 2), "sampled + parda",
                     TablePrinter::fmt(elapsed, 3),
                     TablePrinter::fmt(exact_time / elapsed, 1) + "x",
                     TablePrinter::fmt(mrc_error(h), 4)});
    }
  }
  table.print();
  std::printf(
      "\nParda keeps full accuracy; sampling trades MRC error for speed, "
      "and composing both multiplies the speedups (Section VII)\n");
  return 0;
}

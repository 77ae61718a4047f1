// Reproduces Table IV of the paper: for each SPEC CPU2006 profile,
// measures every stage of the Figure 3 pipeline —
//   Orig    the program alone (trace generation into a scratch buffer)
//   Pin     + per-access instrumentation callback (mini-Pin hook)
//   Pipe    + transfer through the bounded pipe, no analysis
//   Olken81 sequential splay-tree analysis [13] (the reference loop,
//           tree_olken_analysis over SplayTree)
//   Parda   the parallel bounded online analysis (np ranks, bound 2Mw/scale)
// and prints measured M, N, absolute seconds, and the slowdown factors the
// paper reports, next to the paper's own numbers.
//
// Environment: PARDA_BENCH_SCALE (default 8000), PARDA_BENCH_PROCS
// (default 8), PARDA_BENCH_MAXREFS (default 2,000,000).
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/parda.hpp"
#include "hist/mrc.hpp"
#include "hist/report.hpp"
#include "reference/splay_tree.hpp"
#include "reference/tree_olken.hpp"
#include "trace/trace_pipe.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/spec.hpp"

namespace parda::bench {
namespace {

struct Row {
  const SpecProfile* profile;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  double orig = 0;
  double pin = 0;
  double pipe = 0;
  double olken = 0;
  double parda_crit = 0;  // busiest-rank CPU time (cluster estimate)
  double parda_wall = 0;  // measured wall on this 1-core host
};

/// "Orig": the program runs; addresses are consumed in registers only.
double time_orig(Workload& w, std::uint64_t n) {
  w.reset();
  std::vector<Addr> block(kBlock);
  WallTimer t;
  Addr sink = 0;
  for (std::uint64_t at = 0; at < n; at += block.size()) {
    w.fill(std::span<Addr>(block.data(),
                           std::min<std::uint64_t>(block.size(), n - at)));
    sink ^= block[0];
  }
  const double s = t.seconds();
  if (sink == 0x12345678) std::fprintf(stderr, "?");
  return s;
}

/// "Pin": the program runs under instrumentation; each access invokes the
/// analysis hook, which buffers it (what a Pin memory-trace tool does).
double time_pin(Workload& w, std::uint64_t n) {
  w.reset();
  std::vector<Addr> block(kBlock);
  std::vector<Addr> out;
  out.reserve(kBlock);
  WallTimer t;
  std::uint64_t checksum = 0;
  for (std::uint64_t at = 0; at < n; at += block.size()) {
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(block.size(),
                                                         n - at));
    w.fill(std::span<Addr>(block.data(), take));
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(block[i]);  // the instrumentation hook
      if (out.size() == kBlock) {
        checksum ^= out.back();
        out.clear();
      }
    }
  }
  const double s = t.seconds();
  if (checksum == 0x12345678) std::fprintf(stderr, "?");
  return s;
}

/// "Pipe": instrumented run + transfer through the bounded pipe to a
/// consumer that discards the data (no analysis).
double time_pipe(Workload& w, std::uint64_t n, std::size_t pipe_words) {
  w.reset();
  TracePipe pipe(pipe_words);
  WallTimer t;
  std::thread producer([&] {
    std::vector<Addr> block(kBlock);
    for (std::uint64_t at = 0; at < n; at += kBlock) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(kBlock, n - at));
      w.fill(std::span<Addr>(block.data(), take));
      pipe.write(std::span<const Addr>(block.data(), take));
    }
    pipe.close();
  });
  std::uint64_t drained = 0;
  std::vector<Addr> sink;
  while (pipe.read(sink)) drained += sink.size();
  producer.join();
  const double s = t.seconds();
  if (drained != n) std::fprintf(stderr, "pipe drain mismatch\n");
  return s;
}

Row run_benchmark(const SpecProfile& profile, std::uint64_t scale,
                  int np, std::uint64_t maxrefs) {
  Row row;
  row.profile = &profile;
  row.n = std::min<std::uint64_t>(profile.scaled_n(scale), maxrefs);

  auto workload = make_spec_workload(profile, scale, /*seed=*/1);
  row.orig = time_orig(*workload, row.n);
  row.pin = time_pin(*workload, row.n);
  const std::size_t pipe_words = scaled_bound(64ULL << 20);  // "64Mw pipe"
  row.pipe = time_pipe(*workload, row.n, pipe_words);

  // Materialize once for the sequential engine and as the pipe source.
  const std::vector<Addr> trace = take_trace(*workload, row.n);
  {
    WallTimer t;
    const Histogram h = tree_olken_analysis<SplayTree>(trace);
    row.olken = t.seconds();
    row.m = h.infinities();
    // Optional plot data: per-benchmark histogram + MRC CSVs.
    if (const char* dir = std::getenv("PARDA_BENCH_CSV_DIR");
        dir != nullptr && *dir != '\0') {
      const std::string base =
          std::string(dir) + "/" + std::string(profile.name);
      write_text_file(base + "_hist.csv", histogram_to_csv_log2(h));
      write_text_file(base + "_mrc.csv",
                      mrc_to_csv(miss_ratio_curve_pow2(
                          h, h.max_distance() + 2)));
    }
  }
  {
    PipeTraceSource source = trace_pipe_source(trace, pipe_words);
    PardaOptions options;
    options.num_procs = np;
    options.bound = scaled_bound(2ULL << 20);  // "2Mw cache bound"
    options.chunk_words = std::max<std::size_t>(
        1024, pipe_words / static_cast<std::size_t>(np));
    WallTimer t;
    const PardaResult result = parda_analyze(source, options);
    row.parda_wall = t.seconds();
    // Critical path = trace production (sequential, unavoidable per the
    // paper's Section VI-A) overlapped with the busiest analysis rank.
    row.parda_crit = std::max(result.stats.max_busy(), row.pin);
  }
  return row;
}

}  // namespace
}  // namespace parda::bench

int main() {
  using namespace parda;
  using namespace parda::bench;

  const std::uint64_t scale = spec_scale();
  const int np = static_cast<int>(env_u64("PARDA_BENCH_PROCS", 8));
  const std::uint64_t maxrefs = env_u64("PARDA_BENCH_MAXREFS", 2'000'000);

  std::printf(
      "Table IV reproduction: scale=1/%llu, np=%d, bound=%s, maxrefs=%s\n"
      "(paper: 64 procs, 2Mw bound, 64Mw pipe on a Xeon E5640 cluster)\n\n",
      static_cast<unsigned long long>(scale), np,
      words_human(scaled_bound(2ULL << 20)).c_str(),
      with_commas(maxrefs).c_str());

  TablePrinter table({"benchmark", "M", "N", "Orig", "Pin", "Pipe",
                      "Olken81", "Parda", "olken x", "parda x",
                      "paper olken x", "paper parda x"});
  std::vector<double> measured_factors;
  std::vector<double> paper_factors;
  for (const SpecProfile& profile : spec_profiles()) {
    const Row row = run_benchmark(profile, scale, np, maxrefs);
    const double olken_x = row.olken / std::max(row.orig, 1e-9);
    const double parda_x = row.parda_crit / std::max(row.orig, 1e-9);
    const double paper_olken_x = profile.paper_olken / profile.paper_orig;
    const double paper_parda_x = profile.paper_parda / profile.paper_orig;
    measured_factors.push_back(parda_x);
    paper_factors.push_back(paper_parda_x);
    table.add_row({std::string(profile.name), with_commas(row.m),
                   with_commas(row.n), TablePrinter::fmt(row.orig, 3),
                   TablePrinter::fmt(row.pin, 3),
                   TablePrinter::fmt(row.pipe, 3),
                   TablePrinter::fmt(row.olken, 3),
                   TablePrinter::fmt(row.parda_crit, 3),
                   TablePrinter::fmt(olken_x, 1),
                   TablePrinter::fmt(parda_x, 1),
                   TablePrinter::fmt(paper_olken_x, 1),
                   TablePrinter::fmt(paper_parda_x, 1)});
  }
  table.print();
  std::printf(
      "\nParda column: busiest-rank critical path (overlapped with trace "
      "generation), the quantity the paper's 64-core wall clock measures."
      "\ngeomean Parda slowdown: measured %.1fx vs paper %.1fx (paper range "
      "13-50x)\n",
      geomean(measured_factors), geomean(paper_factors));
  return 0;
}

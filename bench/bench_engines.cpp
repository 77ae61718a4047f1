// End-to-end engine comparison on an MRC-histogram workload: every
// sequential ReuseAnalyzer head-to-head (LruChain vs Olken on the ranks'
// stack vs Bennett-Kruskal's Fenwick engine vs the interval engine), each
// measured through both the batched process_block path and the
// per-reference loop, plus parallel Parda at np=1..4 (parda_fenwick: its
// ranks index by a FenwickIndex); Parda always runs the batched path, so
// its points carry block=1.
//
// Writes a parda.bench.v1 artifact (default BENCH_engines.json, override
// with PARDA_BENCH_JSON); a point's identity is (name, np, block) — trace
// length deliberately stays out of the params so a small CI run diffs
// against the committed full-size baseline with scripts/bench_diff.py
// (gate on --metric ns_per_ref: throughput mirrors it inverted, and the
// diff tool treats every metric as a cost).
//
// Environment: PARDA_BENCH_ENGINE_REFS (default 1M references),
// PARDA_BENCH_ENGINE_REPS (default 3; block/loop reps interleave and the
// best rep of each path is reported; parda reports its best rep),
// PARDA_BENCH_SCALE (SPEC footprint divisor), PARDA_BENCH_JSON.
//
// The only google-benchmark registrations time the two slow baselines the
// suite leaves out, the OPT stack and the naive stack, for ad-hoc
// `--benchmark_filter=` runs; `--benchmark_filter=NONE` skips them.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/parda.hpp"
#include "reference/interval_analyzer.hpp"
#include "reference/naive.hpp"
#include "seq/bennett_kruskal.hpp"
#include "seq/lru_chain.hpp"
#include "seq/olken.hpp"
#include "seq/opt.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

/// Suite workload: a zipf trace whose universe scales with the trace
/// length (footprint ~0.4x refs at a=0.8). MRC engines earn their keep
/// when the address table outgrows the cache hierarchy — a small-footprint
/// trace would make every engine look alike and turn the prefetched block
/// path into pure overhead.
const std::vector<Addr>& shared_trace() {
  static const std::vector<Addr> trace = [] {
    const auto refs = bench::env_u64("PARDA_BENCH_ENGINE_REFS", 1 << 20);
    ZipfWorkload w(refs, 0.8, 5);
    return generate_trace(w, refs);
  }();
  return trace;
}

// ---------------------------------------------------------------------------
// The parda.bench.v1 artifact suite.
// ---------------------------------------------------------------------------

double best(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

bench::BenchPoint make_point(std::string name, std::uint64_t np, bool block,
                             double seconds, std::size_t refs) {
  bench::BenchPoint p;
  p.name = std::move(name);
  p.params = {{"np", np}, {"block", block ? 1u : 0u}};
  p.metrics = {
      {"ns_per_ref", seconds * 1e9 / static_cast<double>(refs)},
      {"mrefs_per_s", static_cast<double>(refs) / seconds / 1e6}};
  return p;
}

/// One sequential engine, both dispatch paths. make() returns a fresh
/// analyzer per rep. The block (process_block) and per-reference-loop
/// reps are interleaved and the best rep of each is kept: the two paths
/// differ by tens of ns/ref while background load on a shared box drifts
/// timings by 2x over minutes, so back-to-back minima are the only
/// comparison that survives the noise.
template <typename Make>
void measure_seq(const char* name, const std::vector<Addr>& trace, int reps,
                 std::vector<bench::BenchPoint>& points, Make make) {
  std::vector<double> block_secs, loop_secs;
  for (int i = 0; i < reps; ++i) {
    for (int j = 0; j < 2; ++j) {
      const bool block = (i + j) % 2 == 0;  // alternate which path goes first
      auto analyzer = make();
      WallTimer timer;
      if (block) {
        process_block(analyzer, std::span<const Addr>(trace));
      } else {
        for (Addr z : trace) analyzer.process(z);
      }
      analyzer.finish();
      benchmark::DoNotOptimize(analyzer.histogram().total());
      (block ? block_secs : loop_secs).push_back(timer.seconds());
    }
  }
  points.push_back(make_point(name, 1, true, best(block_secs), trace.size()));
  points.push_back(make_point(name, 1, false, best(loop_secs), trace.size()));
}

void measure_parda(int np, const std::vector<Addr>& trace, int reps,
                   std::vector<bench::BenchPoint>& points) {
  std::vector<double> secs;
  PardaOptions options;
  options.num_procs = np;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    benchmark::DoNotOptimize(parda_analyze(trace, options).hist.total());
    secs.push_back(timer.seconds());
  }
  points.push_back(make_point("parda_fenwick", static_cast<std::uint64_t>(np),
                              true, best(secs), trace.size()));
}

void run_engines_suite() {
  const int reps =
      static_cast<int>(bench::env_u64("PARDA_BENCH_ENGINE_REPS", 3));
  const std::string json_path = bench::bench_json_path("BENCH_engines.json");
  const auto& trace = shared_trace();

  std::vector<bench::BenchPoint> points;
  measure_seq("lru", trace, reps, points, [] { return LruChainAnalyzer(); });
  measure_seq("olken", trace, reps, points, [] { return OlkenAnalyzer(); });
  measure_seq("fenwick", trace, reps, points,
              [] { return BennettKruskalAnalyzer(); });
  measure_seq("interval", trace, reps, points,
              [] { return IntervalAnalyzer(); });
  for (int np = 1; np <= 4; ++np) measure_parda(np, trace, reps, points);

  std::printf("\nengines (refs=%zu, reps=%d)\n%-14s %3s %6s %12s %10s\n",
              trace.size(), reps, "engine", "np", "block", "ns_per_ref",
              "Mrefs/s");
  for (const bench::BenchPoint& p : points) {
    std::printf("%-14s %3" PRIu64 " %6" PRIu64 " %12.2f %10.2f\n",
                p.name.c_str(), p.params[0].second, p.params[1].second,
                p.metrics[0].second, p.metrics[1].second);
  }
  bench::write_bench_json(json_path, "engines", points);
}

// ---------------------------------------------------------------------------
// google-benchmark registrations (ad-hoc runs; not part of the artifact).
// ---------------------------------------------------------------------------

void BM_OptStack(benchmark::State& state) {
  // OPT stack distances (linear-stack percolation): run on a prefix — the
  // per-reference cost is O(stack depth).
  const auto& full = shared_trace();
  const std::span<const Addr> trace(full.data(), 1 << 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt_distance_analysis(trace).total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}

BENCHMARK(BM_OptStack);

void BM_NaiveStack(benchmark::State& state) {
  // O(N*M): run on a small prefix only.
  const auto& full = shared_trace();
  const std::span<const Addr> trace(full.data(), 1 << 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive_stack_analysis(trace).total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}

BENCHMARK(BM_NaiveStack);

}  // namespace
}  // namespace parda

int main(int argc, char** argv) {
  parda::run_engines_suite();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

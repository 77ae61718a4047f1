// Ingest-path comparison: the same trace analyzed through the three
// TraceSource paths (DESIGN.md "Ingest") —
//   pipe  parda_analyze_file_on: producer thread + bounded TracePipe +
//         multi-phase streaming algorithm (one copy per reference),
//   mmap  open_offline_source(kMmap): zero-copy mapping, offline algorithm
//         on disjoint views,
//   trz   open_offline_source(kTrz): chunked v2 archive, per-rank parallel
//         decode, offline algorithm
// — at np = 1..8. This is the artifact behind the "ingest at line rate"
// roadmap item: mmap and trz must beat pipe on refs/s (the pipe pays a
// copy, a thread handoff, and the phase machinery per reference). The
// three paths must agree: the bench exits 1 unless, at every np, they
// return the same histogram, of every reference.
//
// Writes a parda.bench.v1 artifact (default BENCH_ingest.json, override
// with PARDA_BENCH_JSON); a point's identity is (name="analyze_file",
// np, ingest) — trace length deliberately stays out of the params so a
// small CI run diffs against the committed full-size baseline with
// scripts/bench_diff.py (gate on --metric ns_per_ref; the diff tool
// treats every metric as a cost, so refs/s is reported but not gated).
//
// Environment: PARDA_BENCH_INGEST_REFS (default 1M references),
// PARDA_BENCH_INGEST_REPS (default 3, best rep wins), PARDA_BENCH_JSON.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "comm/worker_pool.hpp"
#include "core/file_analysis.hpp"
#include "trace/source.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

struct IngestFixture {
  std::string trc_path;
  std::string trz_path;
  std::size_t refs = 0;
};

IngestFixture make_fixture() {
  const auto refs = bench::env_u64("PARDA_BENCH_INGEST_REFS", 1 << 20);
  ZipfWorkload w(refs, 0.8, 5);
  const std::vector<Addr> trace = generate_trace(w, refs);
  IngestFixture fx;
  fx.refs = trace.size();
  fx.trc_path = "bench_ingest_tmp.trc";
  fx.trz_path = "bench_ingest_tmp.trz";
  write_trace_binary(fx.trc_path, trace);
  write_trace_chunked(fx.trz_path, trace);
  return fx;
}

/// One analysis of the fixture through `ingest`: the pipe streams the
/// .trc, mmap and trz open the matching offline container.
PardaResult analyze(comm::WorkerPool& pool, const IngestFixture& fx,
                    std::string_view ingest, const PardaOptions& options) {
  if (ingest == "pipe") {
    return parda_analyze_file_on(pool, fx.trc_path, options);
  }
  const bool trz = ingest == "trz";
  const std::unique_ptr<TraceSource> source =
      open_offline_source(trz ? fx.trz_path : fx.trc_path,
                          trz ? IngestMode::kTrz : IngestMode::kMmap);
  return parda_analyze_source_on(pool, *source, options);
}

struct Measurement {
  double best_seconds = 1e30;
  Histogram hist;
};

Measurement measure(comm::WorkerPool& pool, const IngestFixture& fx,
                    const char* ingest, int np, int reps) {
  PardaOptions options;
  options.num_procs = np;
  Measurement m;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    PardaResult r = analyze(pool, fx, ingest, options);
    const double secs = timer.seconds();
    if (r.hist.total() != fx.refs) {
      std::fprintf(stderr, "bench_ingest: %s returned %" PRIu64
                           " references, expected %zu\n",
                   ingest, r.hist.total(), fx.refs);
      std::exit(1);
    }
    m.best_seconds = std::min(m.best_seconds, secs);
    m.hist = std::move(r.hist);
  }
  return m;
}

void run_ingest_suite() {
  const int reps =
      static_cast<int>(bench::env_u64("PARDA_BENCH_INGEST_REPS", 3));
  const std::string json_path = bench::bench_json_path("BENCH_ingest.json");
  const IngestFixture fx = make_fixture();

  std::vector<bench::BenchPoint> points;
  std::printf("ingest (refs=%zu, reps=%d)\n%-6s %3s %12s %10s\n", fx.refs,
              reps, "ingest", "np", "ns_per_ref", "Mrefs/s");
  for (const int np : {1, 2, 4, 8}) {
    comm::WorkerPool pool(np);  // warm pool shared by the paths at this np
    Histogram pipe_hist;
    for (const char* ingest : {"pipe", "mmap", "trz"}) {
      const Measurement m = measure(pool, fx, ingest, np, reps);
      if (std::string_view(ingest) == "pipe") {
        pipe_hist = m.hist;
      } else if (!(m.hist == pipe_hist)) {
        std::fprintf(stderr,
                     "bench_ingest: np=%d: the %s histogram differs from "
                     "the pipe's\n",
                     np, ingest);
        std::exit(1);
      }
      const double secs = m.best_seconds;
      bench::BenchPoint p;
      p.name = "analyze_file";
      p.params = {{"np", static_cast<std::uint64_t>(np)}};
      p.labels = {{"ingest", ingest}};
      p.metrics = {
          {"ns_per_ref", secs * 1e9 / static_cast<double>(fx.refs)},
          {"mrefs_per_s", static_cast<double>(fx.refs) / secs / 1e6}};
      std::printf("%-6s %3d %12.2f %10.2f\n", ingest, np,
                  p.metrics[0].second, p.metrics[1].second);
      points.push_back(std::move(p));
    }
  }
  bench::write_bench_json(json_path, "ingest", points);
  std::remove(fx.trc_path.c_str());
  std::remove(fx.trz_path.c_str());
}

}  // namespace
}  // namespace parda

int main() {
  parda::run_ingest_suite();
  return 0;
}

// Shared helpers for the paper-reproduction bench harnesses.
//
// Scaling: every harness honours PARDA_BENCH_SCALE (the SPEC footprint /
// trace-length divisor; default kDefaultSpecScale = 8000, i.e. traces about
// three orders of magnitude below the paper's). Set PARDA_BENCH_SCALE=1000
// for the full-size scaled runs reported in EXPERIMENTS.md.
//
// Timing model: the paper-figure harnesses report, for each parallel run,
//   - seq:   measured sequential Olken81 time,
//   - work:  total CPU work across ranks,
//   - crit:  the busiest rank's CPU time — the critical-path lower bound
//            that a one-core-per-rank cluster would approach (what the
//            paper's 64-node runs measure).
// Every artifact records the host it ran on (see write_bench_json).
//
// Timing-source audit (all timing sites, none use system_clock): every
// harness interval is a util/timer.hpp WallTimer (steady_clock — immune to
// wall-clock adjustment) and per-rank busy time is ThreadCpuTimer
// (CLOCK_THREAD_CPUTIME_ID) inside comm::run. The observability layer's
// span tracer and wait timers are likewise steady_clock-based.
//
// Observability: PARDA_METRICS_OUT=FILE and/or PARDA_TRACE_SPANS=FILE
// enable the obs layer for the bench process and dump a parda.metrics.v1
// snapshot / chrome://tracing span file at exit (same formats as
// trace_tool --metrics-out / --trace-spans).
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parda.hpp"
#include "hist/report.hpp"
#include "obs/obs.hpp"
#include "trace/source.hpp"
#include "trace/trace_pipe.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/timer.hpp"
#include "workload/spec.hpp"

namespace parda::bench {

/// An unsigned environment setting (util/parse.hpp's grammar), or
/// `fallback` when unset or empty. A malformed value is a usage error
/// (kExitUsage), not a silently different configuration.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const std::optional<std::uint64_t> v = parse_u64(value);
  if (!v) {
    std::fprintf(stderr, "bad $%s '%s' (expected a decimal or 0x-hex "
                         "unsigned integer)\n",
                 name, value);
    std::exit(kExitUsage);
  }
  return *v;
}

inline std::string env_str(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

inline std::uint64_t spec_scale() {
  return env_u64("PARDA_BENCH_SCALE", kDefaultSpecScale);
}

/// Rank counts for scaling sweeps; the paper sweeps 8..64 physical cores,
/// we sweep simulated ranks (threads) with critical-path accounting.
inline const std::uint64_t kRankSweep[] = {8, 16, 32, 64};

/// The paper's cache-bound sweep (512Kw..4Mw), divided by scale so the
/// bound keeps the same proportion to the footprint.
inline std::uint64_t scaled_bound(std::uint64_t paper_words) {
  const std::uint64_t s = spec_scale();
  const std::uint64_t b = paper_words / s;
  return b < 16 ? 16 : b;
}

/// References per generator fill and per pipe write in the figure benches.
inline constexpr std::size_t kBlock = 4096;

/// The "original runtime" of Figures 4-5: generating n references of w
/// with no analysis attached.
inline double measure_orig(Workload& w, std::uint64_t n) {
  w.reset();
  std::vector<Addr> block(kBlock);
  WallTimer t;
  for (std::uint64_t at = 0; at < n; at += block.size()) {
    w.fill(std::span<Addr>(block.data(),
                           std::min<std::uint64_t>(block.size(), n - at)));
  }
  return t.seconds();
}

/// A streaming source whose producer writes `trace` into a pipe of
/// pipe_words in kBlock pieces. The trace must outlive the source.
inline PipeTraceSource trace_pipe_source(std::span<const Addr> trace,
                                         std::size_t pipe_words) {
  return PipeTraceSource(pipe_words, [trace](TracePipe& pipe) {
    for (std::size_t at = 0; at < trace.size(); at += kBlock) {
      pipe.write(trace.subspan(at, std::min(kBlock, trace.size() - at)));
    }
  });
}

/// Streams `trace` through a pipe of pipe_words into Parda at np ranks
/// under `bound` (C = pipe_words / np, at least 1024) and returns the
/// busiest rank's CPU time.
inline double measure_parda_crit(const std::vector<Addr>& trace, int np,
                                 std::uint64_t bound,
                                 std::size_t pipe_words) {
  PipeTraceSource source = trace_pipe_source(trace, pipe_words);
  PardaOptions options;
  options.num_procs = np;
  options.bound = bound;
  options.chunk_words =
      std::max<std::size_t>(1024, pipe_words / static_cast<std::size_t>(np));
  return parda_analyze(source, options).stats.max_busy();
}

// ---------------------------------------------------------------------------
// The "parda.bench.v1" artifact schema shared by every BENCH_*.json file:
//
//   {"schema": "parda.bench.v1", "bench": "<harness>", "points": [
//     {"name": "<measurement>",
//      "params":  {"np": 8, "transport": "shm", ...}, // identity
//      "metrics": {"wall_seconds": 0.01, ...}}]}      // doubles: compared
//
// A point's identity for regression diffing (scripts/bench_diff.py) is
// (bench, name, params); metrics are what get compared against the
// threshold. Params may be integers (counts, sizes) or strings
// (categorical axes such as the comm transport); bench_diff defaults a
// missing "transport" to "threads" so pre-transport baselines keep
// matching. Harnesses build BenchPoints and call write_bench_json, which
// also writes a "host" object (nproc, compiler, build_type, git_sha, as
// bench_e2e/run.py writes it, plus a "-dirty" mark on uncommitted trees)
// saying where the numbers came from; bench_diff does not read it.
// ---------------------------------------------------------------------------

struct BenchPoint {
  std::string name;
  std::vector<std::pair<std::string, std::uint64_t>> params;
  /// Categorical identity axes, emitted into "params" as strings.
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, double>> metrics;
};

inline std::string bench_json_path(const char* fallback) {
  const char* env = std::getenv("PARDA_BENCH_JSON");
  return env != nullptr && *env != '\0' ? env : fallback;
}

/// HEAD of the checkout the bench runs from, with a "-dirty" suffix when
/// tracked files differ from it (the numbers then come from uncommitted
/// code), or "unknown".
inline std::string git_sha() {
  std::string sha;
  if (FILE* out = ::popen("git -C '" PARDA_BENCH_SOURCE_DIR
                          "' describe --always --dirty --abbrev=40"
                          " --exclude='*' 2>/dev/null",
                          "r")) {
    char line[64];
    if (std::fgets(line, sizeof(line), out) != nullptr) sha = line;
    ::pclose(out);
  }
  while (!sha.empty() && std::isspace(static_cast<unsigned char>(sha.back()))) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

inline void write_bench_json(const std::string& path,
                             const std::string& bench,
                             const std::vector<BenchPoint>& points) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("parda.bench.v1");
  w.key("bench").value(bench);
  w.key("host").begin_object();
  w.key("nproc").value(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  w.key("compiler").value(std::string("clang ") + __clang_version__);
#else
  w.key("compiler").value(std::string("gcc ") + __VERSION__);
#endif
  w.key("build_type").value(PARDA_BENCH_BUILD_TYPE);
  w.key("git_sha").value(git_sha());
  w.end_object();
  w.key("points").begin_array();
  for (const BenchPoint& p : points) {
    w.begin_object();
    w.key("name").value(p.name);
    w.key("params").begin_object();
    for (const auto& [k, v] : p.params) w.key(k).value(v);
    for (const auto& [k, v] : p.labels) w.key(k).value(v);
    w.end_object();
    w.key("metrics").begin_object();
    for (const auto& [k, v] : p.metrics) w.key(k).value(v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  write_text_file(path, w.take() + "\n");
  std::printf("wrote %s\n", path.c_str());
}

namespace detail {

inline void write_obs_snapshots() {
  const char* metrics = std::getenv("PARDA_METRICS_OUT");
  if (metrics != nullptr && *metrics != '\0') {
    write_text_file(metrics, obs::registry().to_json() + "\n");
  }
  const char* spans = std::getenv("PARDA_TRACE_SPANS");
  if (spans != nullptr && *spans != '\0') {
    write_text_file(spans, obs::tracer().to_chrome_json() + "\n");
  }
}

/// PARDA_METRICS_OUT / PARDA_TRACE_SPANS env hook: enables obs for the
/// whole bench process and registers the exit-time snapshot writer.
struct ObsEnvHook {
  ObsEnvHook() {
    const char* metrics = std::getenv("PARDA_METRICS_OUT");
    const char* spans = std::getenv("PARDA_TRACE_SPANS");
    if ((metrics == nullptr || *metrics == '\0') &&
        (spans == nullptr || *spans == '\0')) {
      return;
    }
    // Materialize the global registry and tracer BEFORE registering the
    // atexit writer: their function-local statics are then destroyed
    // after it runs (reverse registration order).
    obs::registry();
    obs::tracer();
    obs::set_enabled(true);
    std::atexit(&write_obs_snapshots);
  }
};
inline const ObsEnvHook kObsEnvHook{};

}  // namespace detail

}  // namespace parda::bench

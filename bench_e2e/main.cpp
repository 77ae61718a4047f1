// bench_e2e: trace bytes to merged histogram, end to end, on four seeded
// workloads that each stress a different layer (README.md has the why).
//
//   bench_e2e gen --workload W --seed S --dir D [--smoke]
//       writes W's input trace and its oracle into D.
//   bench_e2e run --workload W --dir D --seconds T --trace 0|1
//                 [--spans-out FILE]
//       times W for T seconds and prints one "<workload> <metric> <value>
//       <unit>" line per metric, then ":attempted", ":failed" and
//       ":correct" lines. --trace 0 gives the end-to-end metrics; --trace 1
//       gives the per-layer split from the library's own obs spans,
//       engine.* counters and rank profiles. Both time the same public
//       entry points.
//
// Every run is a closed loop with one caller: the next analysis starts when
// the previous one returns. Every result is compared with the oracle; a
// mismatch or an exception counts as failed and makes the run exit 1.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/file_analysis.hpp"
#include "core/runtime.hpp"
#include "hist/report.hpp"
#include "obs/obs.hpp"
#include "seq/bennett_kruskal.hpp"
#include "seq/bounded.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"
#include "workload/parse.hpp"

namespace parda::e2e {
namespace {

enum class Ingest { kTrz, kMmap, kPipe, kMemory };

struct WorkloadDef {
  const char* name;
  const char* spec;         // workload/parse.hpp spec, seeded by --seed
  std::uint64_t refs;       // references generated
  std::uint64_t window;     // references per analysis; 0 = the whole trace
  int np;                   // ranks of the timed analyses
  std::uint64_t bound;      // cache bound B, or kUnbounded
  Ingest ingest;
};

// Offline runs use np = 4, one rank per core of a 4-core host; the pipe
// runs np = 3 so the producer thread plus the ranks also fit in 4 cores.
// The windows take the serving defaults instead (TenantConfig,
// WindowedMrcMonitor): 16384-reference windows, B = 65536, np = 2.
constexpr WorkloadDef kWorkloads[] = {
    // Deep per-rank trees (more than L2), so RankState's tree and hash
    // dominate, and the per-rank trz decode is visible.
    {"zipf-trz", "zipf:m=1000000,a=0.8", std::uint64_t{1} << 19, 0, 4,
     kUnbounded, Ingest::kTrz},
    // The cycle is longer than a rank's chunk, so every reuse crosses
    // ranks: the infinity pipeline forwards every record while ingest is a
    // zero-copy mmap view (no decode).
    {"chase-mmap", "ptrchase:m=393216", std::uint64_t{1} << 20, 0, 4,
     kUnbounded, Ingest::kMmap},
    // The paper's evaluated configuration: file producer, TracePipe,
    // multi-phase streaming algorithm, bound B. Stresses scatter, state
    // reduction and LRU eviction while the tree stays near B.
    {"stream-bounded", "spec:mcf,scale=100", std::uint64_t{1} << 20, 0, 3,
     131072, Ingest::kPipe},
    // Many small bounded in-memory analyses on one warm runtime, as a
    // WindowedMrcMonitor (and so each MrcService tenant) runs them: job
    // dispatch, final reduce and per-call set-up dominate; the working set
    // fits in cache.
    {"small-windows", "zipf:m=8192,a=0.9", std::uint64_t{256} * 16384, 16384,
     2, std::uint64_t{1} << 16, Ingest::kMemory},
};

/// --smoke inputs: 64K references (4 windows) per workload.
constexpr std::uint64_t kSmokeRefs = std::uint64_t{1} << 16;
/// Fresh set-ups timed per run; setup_s is their median.
constexpr int kSetupReps = 21;
/// The traced run fails if obs-enabled analyses are slower than this.
constexpr double kMaxTraceOverheadPct = 15.0;

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string input_path(const WorkloadDef& w, const std::string& dir) {
  return dir + "/" + w.name + (w.ingest == Ingest::kTrz ? ".trz" : ".trc");
}
std::string oracle_path(const WorkloadDef& w, const std::string& dir) {
  return dir + "/" + w.name + (w.window == 0 ? ".oracle.json" : ".digests");
}

/// FNV-1a over the histogram's canonical words (trailing zeros trimmed).
std::uint64_t digest(const Histogram& h) {
  std::uint64_t x = 0xcbf29ce484222325ULL;
  for (const std::uint64_t word : h.to_words()) {
    x = (x ^ word) * 0x100000001b3ULL;
  }
  return x;
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- host speed --------------------------------------------------------------

/// The speed of the host, probed between the analyses. A shared VM's speed
/// drifts by 10-20% over minutes, and the drift moves every analysis
/// alike. A fixed probe of CPU work and random memory reads, timed next to
/// the analyses, moves with it, so end-to-end times are reported scaled to
/// a nominal host on which that probe takes kNominalCompute. Starting
/// threads is kernel and hypervisor work that slows on its own (3x in some
/// spells), so the part of set-up that starts the runtime is scaled by
/// spawning and joining threads next to it instead. The probe is the
/// bench's own code: no change to the library can move it.
class HostProbe {
 public:
  /// The probe's buffer, resident from construction to exit.
  static constexpr std::size_t kBytes = std::size_t{64} << 20;

  HostProbe() : words_(kBytes / sizeof(std::uint64_t)) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] = i;
  }

  /// Times the compute probe if it was not timed in the last kInterval
  /// seconds.
  void maybe_sample() {
    if (compute_.empty() || since_.seconds() >= kInterval) sample();
  }

  /// Times kSpawnRounds rounds of starting and joining kSpawnThreads
  /// threads, as the runtime starts its workers. Call it only next to
  /// set-ups: each thread takes one of the allocator's per-thread arenas,
  /// and spawning between analyses raised stream-bounded's peak RSS by
  /// 16 MiB.
  void sample_spawn() {
    WallTimer timer;
    for (int round = 0; round < kSpawnRounds; ++round) {
      std::vector<std::thread> threads;
      for (int t = 0; t < kSpawnThreads; ++t) threads.emplace_back([] {});
      for (std::thread& t : threads) t.join();
    }
    spawn_.push_back(timer.seconds() / kSpawnRounds);
  }

  /// Factors from seconds measured in this run to seconds on the nominal
  /// host, for computing and for starting threads: above 1 when the host
  /// ran fast.
  double compute_scale() const { return kNominalCompute / median(compute_); }
  double spawn_scale() const { return kNominalSpawn / median(spawn_); }

 private:
  static constexpr int kCpuSteps = 5'000'000;
  static constexpr int kMemReads = 1'000'000;
  static constexpr int kSpawnThreads = 4;
  static constexpr int kSpawnRounds = 8;
  static constexpr double kNominalCompute = 0.01;
  static constexpr double kNominalSpawn = 50e-6;  // one round
  static constexpr double kInterval = 0.25;

  void sample() {
    std::uint64_t x = state_;
    std::uint64_t sum = 0;
    const auto step = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    WallTimer cpu_timer;
    for (int i = 0; i < kCpuSteps; ++i) sum += step();
    const double cpu = cpu_timer.seconds();
    WallTimer mem_timer;
    for (int i = 0; i < kMemReads; ++i) {
      sum += words_[step() & (words_.size() - 1)];
    }
    const double mem = mem_timer.seconds();
    state_ = x;
    sink_ = sum;
    compute_.push_back(std::sqrt(cpu * mem));
    since_.reset();
  }

  std::vector<std::uint64_t> words_;
  std::vector<double> compute_;
  std::vector<double> spawn_;
  std::uint64_t state_ = 88172645463325252ULL;
  volatile std::uint64_t sink_ = 0;
  WallTimer since_;
};

// --- gen -------------------------------------------------------------------

void gen(const WorkloadDef& w, std::uint64_t seed, const std::string& dir,
         bool smoke) {
  const std::unique_ptr<Workload> workload = parse_workload(w.spec, seed);
  const std::vector<Addr> trace =
      generate_trace(*workload, smoke ? kSmokeRefs : w.refs);
  const std::string path = input_path(w, dir);
  if (w.ingest == Ingest::kTrz) {
    write_trace_chunked(path, trace);
  } else {
    write_trace_binary(path, trace);
  }
  const auto oracle = [&](std::span<const Addr> refs) {
    return w.bound == kUnbounded ? bennett_kruskal_analysis(refs)
                                 : bounded_analysis(refs, w.bound);
  };
  if (w.window == 0) {
    write_text_file(oracle_path(w, dir), histogram_to_json(oracle(trace)));
    return;
  }
  std::string lines;
  for (std::size_t at = 0; at < trace.size(); at += w.window) {
    char line[32];
    std::snprintf(line, sizeof(line), "%016" PRIx64 "\n",
                  digest(oracle({trace.data() + at, w.window})));
    lines += line;
  }
  write_text_file(oracle_path(w, dir), lines);
}

// --- the system under test -----------------------------------------------------

/// Everything set up before the first analysis: a runtime with its workers
/// parked and a World built for each rank count, and the open input.
struct Fixture {
  const WorkloadDef* def = nullptr;
  std::string path;
  std::unique_ptr<core::PardaRuntime> runtime;
  std::unique_ptr<TraceSource> source;  // kTrz, kMmap
  std::vector<Addr> memory;             // kMemory: the windows back to back
  std::uint64_t refs = 0;               // references in the input

  std::uint64_t units() const { return def->window ? refs / def->window : 1; }
  std::uint64_t refs_per_unit() const {
    return def->window ? def->window : refs;
  }
  std::span<const Addr> window(std::size_t unit) const {
    return {memory.data() + unit * def->window, def->window};
  }
  PardaOptions options(int np) const {
    PardaOptions o;
    o.num_procs = np;
    o.bound = def->bound;
    return o;
  }
};

/// `runtime_s`, when given, receives the seconds spent starting the runtime;
/// the rest of the call opens the input.
Fixture open_fixture(const WorkloadDef& w, const std::string& dir,
                     double* runtime_s = nullptr) {
  WallTimer timer;
  Fixture f;
  f.def = &w;
  f.path = input_path(w, dir);
  f.runtime = std::make_unique<core::PardaRuntime>(w.np);
  for (const int np : {w.np, 1}) {
    f.runtime->pool().run_job(np, [](comm::Comm&) {});
  }
  if (runtime_s != nullptr) *runtime_s = timer.seconds();
  switch (w.ingest) {
    case Ingest::kTrz:
    case Ingest::kMmap:
      f.source = open_offline_source(
          f.path, w.ingest == Ingest::kTrz ? IngestMode::kTrz
                                           : IngestMode::kMmap);
      f.refs = f.source->total_references();
      f.source->partition(w.np);
      break;
    case Ingest::kPipe:
      f.refs = BinaryTraceReader(f.path).total_references();
      break;
    case Ingest::kMemory:
      f.memory = read_trace_binary(f.path);
      f.refs = f.memory.size();
      break;
  }
  return f;
}

/// One analysis through the library's public entry points.
PardaResult analyze(Fixture& f, int np, std::size_t unit) {
  const PardaOptions o = f.options(np);
  switch (f.def->ingest) {
    case Ingest::kTrz:
    case Ingest::kMmap:
      return parda_analyze_source_on(f.runtime->pool(), *f.source, o);
    case Ingest::kPipe:
      return parda_analyze_file_on(f.runtime->pool(), f.path, o);
    case Ingest::kMemory:
      break;
  }
  return f.runtime->session(o).analyze(f.window(unit));
}

struct Oracle {
  Histogram hist;
  std::vector<std::uint64_t> digests;  // one per window

  bool matches(const Histogram& h, std::size_t unit) const {
    return digests.empty() ? h == hist : digest(h) == digests.at(unit);
  }
};

Oracle load_oracle(const WorkloadDef& w, const std::string& dir) {
  Oracle o;
  const std::string text = read_text_file(oracle_path(w, dir));
  if (w.window == 0) {
    o.hist = Histogram::from_json(text);
    return o;
  }
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t end = text.find('\n', at);
    o.digests.push_back(std::stoull(text.substr(at, end - at), nullptr, 16));
    at = end == std::string::npos ? text.size() : end + 1;
  }
  return o;
}

/// Runs analyses, checks each against the oracle and keeps the counts.
class Runner {
 public:
  Runner(Fixture& f, const Oracle& oracle) : f_(f), oracle_(oracle) {
    if (f.def->window != 0 && oracle.digests.size() != f.units()) {
      throw std::runtime_error("oracle and input disagree on the windows");
    }
  }

  /// Wall seconds of one checked analysis through the entry points, or
  /// nullopt if it threw or its histogram differs from the oracle. The
  /// result is kept in `out` when given.
  std::optional<double> timed(int np, PardaResult* out = nullptr) {
    const std::size_t unit = next_unit();
    return attempt([&] {
      WallTimer timer;
      PardaResult r = analyze(f_, np, unit);
      const double secs = timer.seconds();
      if (!check(r.hist, unit)) return std::optional<double>();
      if (out != nullptr) *out = std::move(r);
      return std::optional<double>(secs);
    });
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::size_t next_unit() { return cursor_++ % f_.units(); }

  bool check(const Histogram& h, std::size_t unit) const {
    if (oracle_.matches(h, unit)) return true;
    std::fprintf(stderr, "bench_e2e: %s unit %zu: histogram differs from "
                         "the oracle\n", f_.def->name, unit);
    return false;
  }

  template <typename Fn>
  std::optional<double> attempt(Fn&& fn) {
    ++attempted;
    std::optional<double> secs;
    try {
      secs = fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: %s: analysis threw: %s\n",
                   f_.def->name, e.what());
    }
    if (!secs) ++failed;
    return secs;
  }

  Fixture& f_;
  const Oracle& oracle_;
  std::size_t cursor_ = 0;
};

// --- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_report(const WorkloadDef& w, const std::vector<Metric>& metrics,
                  const Runner& runner, bool guards_ok) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %.17g %s\n", w.name, m.name.c_str(), m.value, m.unit);
  }
  std::printf("%s :attempted %" PRIu64 "\n", w.name, runner.attempted);
  std::printf("%s :failed %" PRIu64 "\n", w.name, runner.failed);
  std::printf("%s :host.nproc %u\n", w.name,
              std::thread::hardware_concurrency());
#if defined(__clang__)
  std::printf("%s :host.compiler clang %s\n", w.name, __clang_version__);
#else
  std::printf("%s :host.compiler gcc %s\n", w.name, __VERSION__);
#endif
  std::printf("%s :host.build_type %s\n", w.name, BENCH_E2E_BUILD_TYPE);
  std::printf("%s :correct %d\n", w.name,
              runner.failed == 0 && guards_ok ? 1 : 0);
}

// --- untraced: the end-to-end metrics --------------------------------------------

bool run_untraced(const WorkloadDef& w, const std::string& dir,
                  double seconds) {
  // Each set-up is timed in two parts, starting the runtime and opening the
  // input, so that each can be scaled by the probe part it moves with.
  HostProbe probe;
  std::vector<double> runtime_s;
  std::vector<double> input_s;
  for (int i = 0; i < kSetupReps; ++i) {
    probe.maybe_sample();
    probe.sample_spawn();
    WallTimer timer;
    double runtime = 0.0;
    const Fixture f = open_fixture(w, dir, &runtime);
    input_s.push_back(timer.seconds() - runtime);
    runtime_s.push_back(runtime);
  }

  Fixture f = open_fixture(w, dir);
  const Oracle oracle = load_oracle(w, dir);
  Runner runner(f, oracle);
  runner.timed(w.np);  // warm caches and the trz arenas; checked, not timed

  std::vector<double> at_np;
  WallTimer clock;
  while (clock.seconds() < seconds || (at_np.empty() && runner.failed == 0)) {
    probe.maybe_sample();
    if (const auto secs = runner.timed(w.np)) at_np.push_back(*secs);
  }

  std::vector<Metric> metrics;
  if (!at_np.empty()) {
    const double scale = probe.compute_scale();
    const double spawn_scale = probe.spawn_scale();
    std::vector<double> setup;
    for (std::size_t i = 0; i < runtime_s.size(); ++i) {
      setup.push_back(runtime_s[i] * spawn_scale + input_s[i] * scale);
    }
    const double per_ref =
        1e9 / static_cast<double>(f.refs_per_unit()) * scale;
    metrics = {
        {"ns_per_ref", median(at_np) * per_ref, "ns"},
        {"p90_ns_per_ref", quantile(at_np, 0.9) * per_ref, "ns"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb",
         peak_rss_mib() - static_cast<double>(HostProbe::kBytes >> 20),
         "MiB"},
        {"host_scale", scale, "ratio"},
        {"host_spawn_scale", spawn_scale, "ratio"},
        {"analyses", static_cast<double>(at_np.size()), "count"},
    };
  }
  print_report(w, metrics, runner, true);
  return runner.failed == 0;
}

// --- traced: the per-layer split -------------------------------------------------

/// One rank's time per section op, from the library's own spans: `total`
/// is the section spans' coverage and `wait` the recv-wait/barrier-wait
/// spans inside them, as obs::SpanReport counts them (self = total - wait).
struct OpTime {
  std::int64_t total_ns = 0;
  std::int64_t wait_ns = 0;
};
struct RankSpans {
  std::map<std::string, OpTime, std::less<>> ops;
  std::int64_t first_ns = 0;  // earliest span start
  std::int64_t last_ns = 0;   // latest span end
};

bool is_wait(std::string_view op) {
  return op == "recv-wait" || op == "barrier-wait";
}

/// Folds one analysis's spans per rank. A wait belongs to the section span
/// that contains it on the same rank.
std::vector<RankSpans> fold_spans(const std::vector<obs::SpanEvent>& events) {
  std::map<int, std::vector<const obs::SpanEvent*>> by_rank;
  for (const obs::SpanEvent& e : events) {
    if (e.rank >= 0) by_rank[e.rank].push_back(&e);
  }
  std::vector<RankSpans> out;
  for (const auto& [rank, spans] : by_rank) {
    RankSpans r;
    r.first_ns = spans.front()->t_start_ns;
    for (const obs::SpanEvent* s : spans) {
      r.first_ns = std::min(r.first_ns, s->t_start_ns);
      r.last_ns = std::max(r.last_ns, s->t_end_ns);
      const std::int64_t ns = s->t_end_ns - s->t_start_ns;
      if (!is_wait(s->op)) {
        r.ops[s->op].total_ns += ns;
        continue;
      }
      for (const obs::SpanEvent* section : spans) {
        if (!is_wait(section->op) && section->t_start_ns <= s->t_start_ns &&
            s->t_end_ns <= section->t_end_ns) {
          r.ops[section->op].wait_ns += ns;
          break;
        }
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

enum class Part { kTotal, kSelf, kWait };

double part_s(const RankSpans& r, std::string_view op, Part part) {
  const auto it = r.ops.find(op);
  if (it == r.ops.end()) return 0.0;
  const OpTime& t = it->second;
  const std::int64_t ns = part == Part::kTotal ? t.total_ns
                          : part == Part::kWait ? t.wait_ns
                                                : t.total_ns - t.wait_ns;
  return static_cast<double>(ns) * 1e-9;
}
double max_s(const std::vector<RankSpans>& ranks, std::string_view op,
             Part part) {
  double best = 0.0;
  for (const RankSpans& r : ranks) best = std::max(best, part_s(r, op, part));
  return best;
}
double sum_s(const std::vector<RankSpans>& ranks, std::string_view op,
             Part part) {
  double sum = 0.0;
  for (const RankSpans& r : ranks) sum += part_s(r, op, part);
  return sum;
}

/// Per-layer values of one obs-enabled analysis: its spans and engine.*
/// counters (recorded since the last reset), its rank profiles and comm
/// statistics. `call_ns` is the entry point's wall time.
std::vector<Metric> layer_values(const WorkloadDef& w, const PardaResult& r,
                                 std::int64_t call_ns, double refs) {
  const std::vector<RankSpans> ranks = fold_spans(obs::tracer().events());
  std::int64_t longest_rank = 0;
  for (const RankSpans& rank : ranks) {
    longest_rank = std::max(longest_rank, rank.last_ns - rank.first_ns);
  }
  std::uint64_t peak = 0;
  std::uint64_t phases = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t received = 0;
  for (const RankProfile& p : r.profiles) {
    peak = std::max(peak, p.peak_resident);
    phases = std::max(phases, p.phases);
    forwarded += p.records_forwarded;
    received += p.records_received;
  }
  const obs::Registry& reg = obs::registry();
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto counter = [&](std::string_view name) {
    return count(reg.counter_total(name));
  };
  const bool stream = w.ingest == Ingest::kPipe;
  return {
      {"trace.ingest_s", max_s(ranks, "ingest", Part::kTotal), "s"},
      {"trace.decode_ns_per_ref",
       sum_s(ranks, "ingest", Part::kTotal) * 1e9 / refs, "ns"},
      {"trace.bytes_copied", counter("ingest.bytes_copied"), "bytes"},
      {"core.analyze_s", max_s(ranks, "analyze", Part::kTotal), "s"},
      {"core.analyze_ns_per_ref",
       sum_s(ranks, "analyze", Part::kTotal) * 1e9 / refs, "ns"},
      {"core.peak_resident", count(peak), "count"},
      {"tree.rotations", counter("engine.tree_rotations"), "count"},
      {"tree.splays", counter("engine.tree_splays"), "count"},
      {"hash.probes", counter("engine.hash_probes"), "count"},
      {"core.pipeline_self_s",
       max_s(ranks, "infinity-pipeline", Part::kSelf), "s"},
      {"core.pipeline_wait_s",
       max_s(ranks, "infinity-pipeline", Part::kWait), "s"},
      {"core.records_forwarded", count(forwarded), "count"},
      {"core.records_received", count(received), "count"},
      {"core.scatter_s", max_s(ranks, "scatter", Part::kSelf), "s"},
      {"core.scatter_wait_s", max_s(ranks, "scatter", Part::kWait), "s"},
      {"core.state_reduce_s",
       stream ? max_s(ranks, "reduce", Part::kSelf) : 0.0, "s"},
      {"core.state_reduce_wait_s",
       stream ? max_s(ranks, "reduce", Part::kWait) : 0.0, "s"},
      {"core.phases", count(phases), "count"},
      {"hist.reduce_s",
       max_s(ranks, stream ? "final-reduce" : "reduce", Part::kTotal), "s"},
      {"comm.dispatch_s",
       static_cast<double>(std::max<std::int64_t>(0, call_ns - longest_rank)) *
           1e-9,
       "s"},
      {"comm.messages", count(r.stats.total_messages()), "count"},
      {"comm.bytes_sent", count(r.stats.total_bytes()), "bytes"},
      {"comm.bytes_copied", count(r.stats.total_bytes_copied()), "bytes"},
      {"comm.busy_imbalance",
       r.stats.total_busy() > 0
           ? r.stats.max_busy() / (r.stats.total_busy() / w.np)
           : 1.0,
       "ratio"},
  };
}

bool run_traced(const WorkloadDef& w, const std::string& dir, double seconds,
                const std::string& spans_out) {
  Fixture f = open_fixture(w, dir);
  const Oracle oracle = load_oracle(w, dir);
  Runner runner(f, oracle);
  runner.timed(w.np);
  const double refs = static_cast<double>(f.refs_per_unit());

  // Untraced and obs-enabled analyses of the same entry point take turns,
  // so that drift of the host's speed hits both alike: the difference
  // between their medians is the cost of tracing, and each obs-enabled
  // analysis gives one per-layer split.
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::vector<std::vector<Metric>> layers;
  obs::SpanTracer& tracer = obs::tracer();  // allocated before any timing
  WallTimer clock;
  while (clock.seconds() < 0.7 * seconds ||
         ((untraced_wall.size() < 2 || layers.empty()) &&
          runner.failed == 0)) {
    if (const auto secs = runner.timed(w.np)) untraced_wall.push_back(*secs);
    tracer.clear();
    obs::registry().reset_values();
    obs::set_enabled(true);
    PardaResult result;
    const std::int64_t start = tracer.now_ns();
    const auto secs = runner.timed(w.np, &result);
    const std::int64_t call_ns = tracer.now_ns() - start;
    obs::set_enabled(false);
    if (secs) {
      traced_wall.push_back(*secs);
      layers.push_back(layer_values(w, result, call_ns, refs));
    }
  }
  // The spans of the last obs-enabled analysis, for a trace viewer.
  if (!spans_out.empty()) write_text_file(spans_out, tracer.to_chrome_json());

  std::vector<double> at_one;
  while (clock.seconds() < 0.85 * seconds ||
         (at_one.empty() && runner.failed == 0)) {
    if (const auto secs = runner.timed(1)) at_one.push_back(*secs);
  }

  // The sequential reference: Bennett-Kruskal (Fenwick) on the same input.
  std::vector<Addr> loaded;
  if (w.ingest == Ingest::kTrz) loaded = read_trace_compressed(f.path);
  if (w.ingest == Ingest::kMmap || w.ingest == Ingest::kPipe) {
    loaded = read_trace_binary(f.path);
  }
  std::vector<double> seq;
  for (std::size_t unit = 0;
       clock.seconds() < seconds || seq.empty(); ++unit) {
    const std::span<const Addr> input =
        w.window ? f.window(unit % f.units()) : std::span<const Addr>(loaded);
    WallTimer timer;
    bennett_kruskal_analysis(input);
    seq.push_back(timer.seconds());
  }

  bool guards_ok = runner.failed == 0;
  std::vector<Metric> metrics;
  if (!layers.empty() && !untraced_wall.empty() && !at_one.empty()) {
    for (std::size_t i = 0; i < layers.front().size(); ++i) {
      std::vector<double> v;
      for (const auto& run : layers) v.push_back(run[i].value);
      metrics.push_back({layers.front()[i].name, median(v),
                         layers.front()[i].unit});
    }
    const double wall = median(untraced_wall);
    const double overhead_pct = (median(traced_wall) / wall - 1.0) * 100.0;
    if (overhead_pct > kMaxTraceOverheadPct) {
      std::fprintf(stderr, "bench_e2e: %s: tracing overhead %.1f%%\n",
                   w.name, overhead_pct);
      guards_ok = false;
    }
    const double us = 1e6;
    metrics.push_back({"seq.fenwick_ns_per_ref", median(seq) * 1e9 / refs,
                       "ns"});
    metrics.push_back({"runtime.np1_ns_per_ref", median(at_one) * 1e9 / refs,
                       "ns"});
    metrics.push_back({"core.scaling_eff",
                       median(at_one) / (w.np * wall), "ratio"});
    metrics.push_back({"runtime.window_p50_us", wall * us, "us"});
    metrics.push_back({"runtime.window_p90_us",
                       quantile(untraced_wall, 0.9) * us, "us"});
    metrics.push_back({"runtime.window_p99_us",
                       quantile(untraced_wall, 0.99) * us, "us"});
    metrics.push_back({"obs.trace_overhead_pct", overhead_pct, "%"});
  } else {
    guards_ok = false;
  }
  print_report(w, metrics, runner, guards_ok);
  return runner.failed == 0 && guards_ok;
}

int main_impl(int argc, char** argv) {
  std::string workload;
  std::string dir;
  std::string spans_out;
  std::uint64_t seed = 1;
  std::uint64_t trace = 0;
  double seconds = 10.0;
  bool smoke = false;
  CliParser cli(
      "bench_e2e gen|run: the end-to-end PARDA benchmark (see README.md)");
  cli.add_flag("workload", &workload, "workload name");
  cli.add_flag("dir", &dir, "directory of the generated inputs");
  cli.add_flag("seed", &seed, "gen: input seed");
  cli.add_flag("smoke", &smoke, "gen: 64K-reference inputs");
  cli.add_flag("seconds", &seconds, "run: seconds of measurement");
  cli.add_flag("trace", &trace, "run: 1 = per-layer split, 0 = end to end");
  cli.add_flag("spans-out", &spans_out, "run --trace 1: chrome-trace file");
  cli.parse(argc, argv);

  if (cli.positionals().size() != 1) usage_error("expected gen or run");
  const WorkloadDef* w = find_workload(workload);
  if (w == nullptr) usage_error("unknown --workload '%s'", workload.c_str());
  if (dir.empty()) usage_error("--dir is required");
  const std::string& command = cli.positionals()[0];
  if (command == "gen") {
    gen(*w, seed, dir, smoke);
    return 0;
  }
  if (command != "run") usage_error("unknown command '%s'", command.c_str());
  if (trace > 1) usage_error("--trace must be 0 or 1");
  const bool ok = trace == 1 ? run_traced(*w, dir, seconds, spans_out)
                             : run_untraced(*w, dir, seconds);
  return ok ? 0 : kExitRuntime;
}

}  // namespace
}  // namespace parda::e2e

int main(int argc, char** argv) {
  try {
    return parda::e2e::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return parda::kExitRuntime;
  }
}

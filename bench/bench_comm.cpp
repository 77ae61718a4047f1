// Ablation A4: the thread-backed message-passing runtime itself — message
// latency, bandwidth, barrier, and the histogram reduction Algorithm 3
// ends in. These are the "MPI" overheads inside every Parda run.
//
// Besides the google-benchmark microbenchmarks, this harness runs a
// data-movement pattern suite — the message shapes Parda sends: the
// owned-vector broadcast of the phase header, the shared-block scatter of
// the phase intake, and the move-in / view-out local-infinity pipeline —
// across every in-process wire (threads, shm, tcp) and writes the
// copy-count accounting to BENCH_comm.json (override the path with
// PARDA_BENCH_JSON). This is the artifact that shows the zero-copy
// transport actually removes copies rather than merely relabeling them —
// and what each byte costs once it has to cross a real wire.
//
// Environment: PARDA_BENCH_PROCS (default 8), PARDA_BENCH_WORDS (default
// 64Ki words per payload), PARDA_BENCH_ROUNDS (default 20),
// PARDA_BENCH_TRANSPORTS (comma-separated specs, default
// "threads,shm,tcp"), PARDA_BENCH_JSON (default BENCH_comm.json).
#include <benchmark/benchmark.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "comm/comm.hpp"
#include "comm/transport/spec.hpp"
#include "core/parda.hpp"
#include "obs/runtime.hpp"
#include "obs/telemetry.hpp"
#include "util/timer.hpp"

namespace parda::comm {
namespace {

void BM_PingPong(benchmark::State& state) {
  const auto rounds = static_cast<int>(state.range(0));
  const std::vector<std::uint64_t> payload(
      static_cast<std::size_t>(state.range(1)), 42);
  for (auto _ : state) {
    run(2, [&](Comm& comm) {
      for (int i = 0; i < rounds; ++i) {
        // Sends are move-only: each round sends an owned copy.
        if (comm.rank() == 0) {
          comm.send(1, 1, std::vector<std::uint64_t>(payload));
          benchmark::DoNotOptimize(comm.recv<std::uint64_t>(1, 2));
        } else {
          benchmark::DoNotOptimize(comm.recv<std::uint64_t>(0, 1));
          comm.send(0, 2, std::vector<std::uint64_t>(payload));
        }
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rounds * 2);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rounds * 2 *
                          static_cast<std::int64_t>(payload.size() * 8));
}

// (rounds, payload words): latency-bound and bandwidth-bound points.
BENCHMARK(BM_PingPong)->Args({1000, 1})->Args({100, 1 << 16})->UseRealTime();

void BM_Barrier(benchmark::State& state) {
  const auto np = static_cast<int>(state.range(0));
  const int rounds = 500;
  for (auto _ : state) {
    run(np, [&](Comm& comm) {
      for (int i = 0; i < rounds; ++i) comm.barrier();
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rounds);
}

BENCHMARK(BM_Barrier)->Arg(2)->Arg(8)->UseRealTime();

void BM_ReduceSum(benchmark::State& state) {
  // reduce_results (the reduce_sum of Algorithm 3, which carries every
  // rank's profile with the histograms) over histograms with range(1)
  // populated distance bins.
  const auto np = static_cast<int>(state.range(0));
  Histogram mine;
  for (std::int64_t d = 0; d < state.range(1); ++d) {
    mine.record(static_cast<Distance>(d));
  }
  RankProfile profile;
  profile.chunk_refs = mine.total();
  profile.hits_resolved = mine.finite_total();
  const int rounds = 50;
  for (auto _ : state) {
    PardaResult result;
    run(np, [&](Comm& comm) {
      for (int i = 0; i < rounds; ++i) {
        reduce_results(comm, mine, profile, result);
        if (comm.rank() == 0) benchmark::DoNotOptimize(result);
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rounds);
}

BENCHMARK(BM_ReduceSum)->Args({4, 1 << 10})->Args({8, 1 << 14})->UseRealTime();

void BM_SpawnTeardown(benchmark::State& state) {
  // The fixed cost of comm::run itself (thread spawn + join per phase).
  const auto np = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run(np, [](Comm&) {});
  }
}

BENCHMARK(BM_SpawnTeardown)->Arg(2)->Arg(8)->Arg(16)->UseRealTime();

void BM_MoveSend(benchmark::State& state) {
  // Zero-copy point-to-point: move the buffer in, move it back out.
  const auto words = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    run(2, [&](Comm& comm) {
      if (comm.rank() == 0) {
        std::vector<std::uint64_t> payload(words, 42);
        for (int i = 0; i < 100; ++i) {
          comm.send(1, 1, std::move(payload));
          payload = comm.recv<std::uint64_t>(1, 2);
        }
      } else {
        for (int i = 0; i < 100; ++i) {
          auto payload = comm.recv<std::uint64_t>(0, 1);
          comm.send(0, 2, std::move(payload));
        }
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          200 * static_cast<std::int64_t>(words * 8));
}

BENCHMARK(BM_MoveSend)->Arg(1 << 16)->UseRealTime();

// ---------------------------------------------------------------------------
// Telemetry-plane overheads: what one parda.telemetry.v1 frame costs to
// build on a sender and to ingest at the rank-0 hub. The distributed
// channel does each ~4 times/second/process (PARDA_TELEMETRY_INTERVAL_MS),
// so these bound the plane's steady-state cost.
// ---------------------------------------------------------------------------

/// A sender's telemetry state at a representative size: a populated span
/// ring plus live metrics, everything local so neither the pattern suite
/// nor the comm micro-benchmarks see the fixture. obs is enabled only
/// while the fixture lives (SpanTracer::record is a no-op otherwise).
struct TelemetryFixture {
  bool prev_enabled;
  obs::Registry reg;
  obs::SpanTracer spans{std::size_t{1} << 10};
  obs::ClockSync clock{1500, 80, true, 8};

  TelemetryFixture() : prev_enabled(obs::enabled()) {
    obs::set_enabled(true);
    for (int i = 0; i < 512; ++i) {
      const std::int64_t t0 = i * 1000;
      spans.record(t0, t0 + 700, i % 2 == 0 ? "analyze" : "recv-wait",
                   static_cast<std::uint32_t>(i % 4));
    }
    reg.counter("bench.telemetry_refs").add(123456);
    reg.gauge("bench.telemetry_depth").set(7);
    reg.timer("bench.telemetry_wait").record_ns(4096);
  }
  ~TelemetryFixture() { obs::set_enabled(prev_enabled); }

  std::string frame(std::uint64_t seq) const {
    return obs::make_telemetry_frame(1, seq, false, clock, reg, spans);
  }
};

void BM_TelemetryFrame(benchmark::State& state) {
  const TelemetryFixture fx;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.frame(++seq));
  }
}

BENCHMARK(BM_TelemetryFrame);

void BM_TelemetryIngest(benchmark::State& state) {
  const TelemetryFixture fx;
  const std::string frame = fx.frame(1);
  obs::TelemetryHub hub;  // private hub: the global one serves /metrics
  for (auto _ : state) {
    hub.ingest_frame(frame, 1);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}

BENCHMARK(BM_TelemetryIngest);

/// The same two costs as JSON points, so scripts/bench_diff.py gates them
/// alongside the data-movement patterns (new names are reported, not
/// compared, on the first run against an older baseline).
std::vector<bench::BenchPoint> telemetry_overhead_points() {
  const TelemetryFixture fx;
  constexpr int kFrames = 256;

  WallTimer build_timer;
  std::string frame;
  for (int i = 0; i < kFrames; ++i) frame = fx.frame(i + 1);
  const double build_seconds = build_timer.seconds();

  obs::TelemetryHub hub;
  WallTimer ingest_timer;
  for (int i = 0; i < kFrames; ++i) hub.ingest_frame(frame, 1);
  const double ingest_seconds = ingest_timer.seconds();

  const auto point = [&](const char* name, double wall) {
    bench::BenchPoint bp;
    bp.name = name;
    bp.params = {{"spans", 512}, {"frames", kFrames}};
    bp.metrics = {{"wall_seconds", wall},
                  {"frame_bytes", static_cast<double>(frame.size())}};
    return bp;
  };
  std::printf("telemetry overhead: build %.1f us/frame, ingest %.1f "
              "us/frame, %zu bytes/frame\n",
              build_seconds / kFrames * 1e6, ingest_seconds / kFrames * 1e6,
              frame.size());
  return {point("telemetry_frame", build_seconds),
          point("telemetry_ingest", ingest_seconds)};
}

// ---------------------------------------------------------------------------
// Data-movement pattern suite: each Parda communication shape, with the
// runtime's own accounting.
// ---------------------------------------------------------------------------

struct PatternResult {
  std::string name;
  std::string transport;  // TransportSpec kind the pattern ran over
  int np;
  std::uint64_t words;   // payload words per round
  int rounds;
  RunStats stats;
};

/// Pattern context: which wire to run over plus the shared sweep sizes.
struct PatternEnv {
  RunOptions options;
  std::string transport;  // spec kind, for the point identity
  int np;
  std::size_t words;
  int rounds;
};

PatternResult broadcast_copying(const PatternEnv& env) {
  const int np = env.np;
  const std::size_t words = env.words;
  const int rounds = env.rounds;
  const RunStats stats = run(np, [&](Comm& comm) {
    const std::vector<std::uint64_t> block(words, 7);
    for (int i = 0; i < rounds; ++i) {
      std::vector<std::uint64_t> data;
      if (comm.rank() == 0) data = block;  // fresh owned copy each round
      data = comm.broadcast(std::move(data), 0, i + 1);
      benchmark::DoNotOptimize(data.data());
    }
  }, env.options);
  return {"broadcast_copying", env.transport, np, words, rounds, stats};
}

PatternResult scatter_view(const PatternEnv& env) {
  // The streaming driver's shape: one shared block, np slice views.
  const int np = env.np;
  const std::size_t words = env.words;
  const int rounds = env.rounds;
  const RunStats stats = run(np, [&](Comm& comm) {
    for (int i = 0; i < rounds; ++i) {
      std::vector<std::uint64_t> block;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> slices;
      if (comm.rank() == 0) {
        block.assign(words, 9);
        const std::uint64_t chunk = words / static_cast<std::uint64_t>(np);
        for (int r = 0; r < np; ++r) {
          const std::uint64_t lo = static_cast<std::uint64_t>(r) * chunk;
          const std::uint64_t hi = r == np - 1 ? words : lo + chunk;
          slices.emplace_back(lo, hi - lo);
        }
      }
      const View<std::uint64_t> mine = comm.scatterv_view(
          std::move(block),
          std::span<const std::pair<std::uint64_t, std::uint64_t>>(slices),
          0, i + 1);
      benchmark::DoNotOptimize(mine.data());
    }
  }, env.options);
  return {"scatter_view", env.transport, np, words, rounds, stats};
}

PatternResult pipeline_move(const PatternEnv& env) {
  // Parda's local-infinity chain: move-in / view-out transport.
  const int np = env.np;
  const std::size_t words = env.words;
  const int rounds = env.rounds;
  const RunStats stats = run(np, [&](Comm& comm) {
    const int r = comm.rank();
    for (int i = 0; i < rounds; ++i) {
      if (r > 0) {
        comm.send(r - 1, 5, std::vector<std::uint64_t>(words, 3));
      }
      if (r < np - 1) {
        const View<std::uint64_t> v = comm.recv_view<std::uint64_t>(r + 1, 5);
        benchmark::DoNotOptimize(v.data());
      }
    }
  }, env.options);
  return {"pipeline_move", env.transport, np, words, rounds, stats};
}

void write_json(const std::string& path,
                const std::vector<PatternResult>& results) {
  std::vector<bench::BenchPoint> out;
  out.reserve(results.size());
  for (const PatternResult& r : results) {
    bench::BenchPoint bp;
    bp.name = r.name;
    bp.params = {{"np", static_cast<std::uint64_t>(r.np)},
                 {"words", r.words},
                 {"rounds", static_cast<std::uint64_t>(r.rounds)}};
    bp.labels = {{"transport", r.transport}};
    bp.metrics = {
        {"wall_seconds", r.stats.wall_seconds},
        {"max_busy_seconds", r.stats.max_busy()},
        {"messages", static_cast<double>(r.stats.total_messages())},
        {"bytes_sent", static_cast<double>(r.stats.total_bytes())},
        {"bytes_copied", static_cast<double>(r.stats.total_bytes_copied())},
        {"bytes_shared", static_cast<double>(r.stats.total_bytes_shared())},
    };
    out.push_back(std::move(bp));
  }
  for (bench::BenchPoint& bp : telemetry_overhead_points()) {
    out.push_back(std::move(bp));
  }
  bench::write_bench_json(path, "comm", out);
}

/// Splits the PARDA_BENCH_TRANSPORTS list ("threads,shm,tcp") into
/// validated in-process specs. Distributed clauses (rank=, peers=) are
/// rejected: the suite runs every rank inside this one bench process.
std::vector<TransportSpec> transport_sweep(int np) {
  const std::string text =
      bench::env_str("PARDA_BENCH_TRANSPORTS", "threads,shm,tcp");
  std::vector<TransportSpec> specs;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!item.empty()) {
      TransportSpec spec = TransportSpec::parse(item);
      spec.validate(np);
      specs.push_back(std::move(spec));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return specs;
}

void run_pattern_suite() {
  const int np = static_cast<int>(bench::env_u64("PARDA_BENCH_PROCS", 8));
  const auto words =
      static_cast<std::size_t>(bench::env_u64("PARDA_BENCH_WORDS", 1 << 16));
  const int rounds =
      static_cast<int>(bench::env_u64("PARDA_BENCH_ROUNDS", 20));
  const std::string json_path = bench::bench_json_path("BENCH_comm.json");

  using PatternFn = PatternResult (*)(const PatternEnv&);
  const PatternFn patterns[] = {broadcast_copying, scatter_view,
                                pipeline_move};

  std::vector<PatternResult> results;
  for (const TransportSpec& spec : transport_sweep(np)) {
    PatternEnv env;
    env.options.transport = spec;
    env.transport = transport_kind_name(spec.kind);
    env.np = np;
    env.words = words;
    env.rounds = rounds;
    for (const PatternFn fn : patterns) results.push_back(fn(env));
  }

  std::printf(
      "\ndata-movement patterns (np=%d, words=%zu, rounds=%d)\n"
      "%-20s %-8s %10s %14s %14s %14s %10s %10s\n",
      np, words, rounds, "pattern", "wire", "msgs", "bytes_sent",
      "bytes_copied", "bytes_shared", "wall_ms", "busy_ms");
  for (const PatternResult& r : results) {
    std::printf("%-20s %-8s %10" PRIu64 " %14" PRIu64 " %14" PRIu64
                " %14" PRIu64 " %10.2f %10.2f\n",
                r.name.c_str(), r.transport.c_str(),
                r.stats.total_messages(), r.stats.total_bytes(),
                r.stats.total_bytes_copied(), r.stats.total_bytes_shared(),
                r.stats.wall_seconds * 1e3, r.stats.max_busy() * 1e3);
  }
  write_json(json_path, results);
}

}  // namespace
}  // namespace parda::comm

int main(int argc, char** argv) {
  parda::comm::run_pattern_suite();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Ablation A5: the multi-phase online algorithm (Algorithm 5). Sweeps the
// per-rank chunk size C (phase = np*C) and reports analysis time plus the
// communication the phase reduction costs — the offline single-phase run
// is the reference point.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/parda.hpp"
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

  auto workload = make_spec_workload("milc", scale, /*seed=*/1);
  const std::uint64_t n =
      std::min<std::uint64_t>(spec_profile("milc").scaled_n(scale), maxrefs);
  const std::vector<Addr> trace = take_trace(*workload, n);

  PardaOptions offline;
  offline.num_procs = np;
  WallTimer t0;
  const PardaResult reference = parda_analyze(trace, offline);
  const double offline_time = t0.seconds();

  std::printf(
      "Phase-size ablation (Algorithm 5), milc profile, N=%s, np=%d\n"
      "offline single-stage run: %.3fs wall, %.3fs critical path\n\n",
      with_commas(n).c_str(), np, offline_time,
      reference.stats.max_busy());

  TablePrinter table({"chunk C", "phases", "wall (s)", "crit (s)",
                      "messages", "bytes"});
  for (std::size_t chunk : {1024UL, 4096UL, 16384UL, 65536UL, 262144UL}) {
    PardaOptions options;
    options.num_procs = np;
    options.chunk_words = chunk;
    PipeTraceSource source = trace_pipe_source(trace, 4 * chunk);
    WallTimer t;
    const PardaResult result = parda_analyze(source, options);
    const double wall = t.seconds();
    if (!(result.hist == reference.hist)) {
      std::fprintf(stderr, "MISMATCH at C=%zu\n", chunk);
      return 1;
    }
    const std::uint64_t phase_len =
        static_cast<std::uint64_t>(chunk) * static_cast<std::uint64_t>(np);
    const std::uint64_t phases = (n + phase_len - 1) / phase_len;
    table.add_row({words_human(chunk), with_commas(phases),
                   TablePrinter::fmt(wall, 3),
                   TablePrinter::fmt(result.stats.max_busy(), 3),
                   with_commas(result.stats.total_messages()),
                   with_commas(result.stats.total_bytes())});
  }
  table.print();
  std::printf(
      "\nsmaller phases track the stream more closely but pay the "
      "reduction (Algorithm 6) more often\n");
  return 0;
}

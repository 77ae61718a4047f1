// Ablation A8: load balance across ranks. Section IV-D argues the
// multi-phase algorithm "achieves good load balancing" because the
// state-holder merges while other ranks process infinities; this harness
// prints per-rank work (busy time, chunk references, records received)
// for the offline single-stage run versus phased runs.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/parda.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/spec.hpp"

namespace parda::bench {
namespace {

void print_profiles(const char* label, const PardaResult& result) {
  std::printf("%s\n", label);
  TablePrinter table({"rank", "busy (ms)", "chunk refs", "records in",
                      "records fwd", "hits resolved", "peak resident"});
  double busy_max = 0.0;
  double busy_sum = 0.0;
  for (std::size_t r = 0; r < result.profiles.size(); ++r) {
    const RankProfile& p = result.profiles[r];
    const double busy =
        result.stats.ranks[r].busy_seconds * 1000.0;
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
    table.add_row({std::to_string(r), TablePrinter::fmt(busy, 1),
                   with_commas(p.chunk_refs),
                   with_commas(p.records_received),
                   with_commas(p.records_forwarded),
                   with_commas(p.hits_resolved),
                   with_commas(p.peak_resident)});
  }
  table.print();
  const double balance =
      busy_max == 0.0
          ? 1.0
          : busy_sum / (busy_max * static_cast<double>(
                                       result.profiles.size()));
  std::printf("balance = avg busy / max busy = %.2f (1.0 = perfect)\n\n",
              balance);
}

}  // namespace
}  // namespace parda::bench

int main() {
  using namespace parda;
  using namespace parda::bench;

  const std::uint64_t scale = spec_scale();
  const std::uint64_t maxrefs = env_u64("PARDA_BENCH_MAXREFS", 1'000'000);
  const int np = static_cast<int>(env_u64("PARDA_BENCH_PROCS", 8));

  auto workload = make_spec_workload("sphinx3", scale, /*seed=*/1);
  const std::uint64_t n = std::min<std::uint64_t>(
      spec_profile("sphinx3").scaled_n(scale), maxrefs);
  const std::vector<Addr> trace = take_trace(*workload, n);

  std::printf("Load-balance ablation (Section IV-D), sphinx3 profile, "
              "N=%s, np=%d\n\n",
              with_commas(n).c_str(), np);

  PardaOptions offline;
  offline.num_procs = np;
  print_profiles("offline single-stage (Algorithm 3): rank 0 resolves "
                 "everything, left ranks do extra merge work",
                 parda_analyze(trace, offline));

  for (const std::size_t chunk : {65536UL, 8192UL}) {
    PardaOptions streamed;
    streamed.num_procs = np;
    streamed.chunk_words = chunk;
    char label[128];
    std::snprintf(label, sizeof(label),
                  "phased (Algorithm 5), C=%zu: rank reversal spreads the "
                  "merge across ranks",
                  chunk);
    PipeTraceSource source = trace_pipe_source(trace, 8 * kBlock);
    print_profiles(label, parda_analyze(source, streamed));
  }
  return 0;
}

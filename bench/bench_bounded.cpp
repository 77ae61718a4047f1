// Ablation A3: the cache bound (Algorithm 7). Sweeps B and reports
// sequential and parallel analysis time — the paper's Section V claim that
// bounding improves time from O(N log M) to O(N log B). The sequential
// columns time the paper's splay-tree Olken (tree_olken_analysis).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/parda.hpp"
#include "reference/splay_tree.hpp"
#include "reference/tree_olken.hpp"
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

  auto workload = make_spec_workload("astar", scale, /*seed=*/1);
  const std::uint64_t n =
      std::min<std::uint64_t>(spec_profile("astar").scaled_n(scale), maxrefs);
  const std::vector<Addr> trace = take_trace(*workload, n);

  double unbounded_seq = 0;
  std::uint64_t m = 0;
  {
    WallTimer t;
    const Histogram h = tree_olken_analysis<SplayTree>(trace);
    unbounded_seq = t.seconds();
    m = h.infinities();
  }

  std::printf(
      "Cache-bound ablation (Algorithm 7), astar profile, N=%s, M=%s\n"
      "unbounded sequential Olken81: %.3fs\n\n",
      with_commas(n).c_str(), with_commas(m).c_str(), unbounded_seq);

  TablePrinter table({"bound B", "seq bounded (s)", "vs unbounded",
                      "parda crit (s)", "resident <= B"});
  for (std::uint64_t b : {64ULL, 256ULL, 1024ULL, 4096ULL, 16384ULL,
                          65536ULL}) {
    WallTimer t;
    const Histogram seq = tree_olken_analysis<SplayTree>(trace, b);
    const double seq_time = t.seconds();

    PardaOptions options;
    options.num_procs = np;
    options.bound = b;
    const PardaResult par = parda_analyze(trace, options);
    if (!(par.hist == seq)) {
      std::fprintf(stderr, "MISMATCH at B=%llu\n",
                   static_cast<unsigned long long>(b));
      return 1;
    }
    table.add_row({words_human(b), TablePrinter::fmt(seq_time, 3),
                   TablePrinter::fmt(seq_time / unbounded_seq, 2) + "x",
                   TablePrinter::fmt(par.stats.max_busy(), 3),
                   b >= m ? "= exact" : "bounded"});
  }
  table.print();
  std::printf(
      "\npaper claim: time drops with B (smaller trees); the bound turns "
      "O(N log M) into O(N log B)\n");
  return 0;
}

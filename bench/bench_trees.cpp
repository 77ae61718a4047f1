// Ablation A1: order-statistic tree engine choice (splay vs AVL vs treap,
// against the FenwickIndex that the Olken stack runs on) under the
// reuse-distance access pattern — the design space the paper's Section VII
// surveys ([13] AVL, [17][18] splay, [2] Fenwick).
//
// Writes a parda.bench.v1 artifact (default BENCH_trees.json, override
// with PARDA_BENCH_JSON): olken_zipf_* points sweep the footprint m on a
// zipf trace, olken_stream_* hit the splay tree's sequential worst case,
// churn_* measure raw insert/count/erase cycles at a fixed resident size.
// The pointer trees' olken points run the reference loop
// (tree_olken_analysis); fenwick's run the library's OlkenAnalyzer, the
// FenwickIndex on its renumbered clock.
// Environment: PARDA_BENCH_TREE_REFS (trace length, default 64K),
// PARDA_BENCH_TREE_REPS (default 3; median rep reported).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "reference/avl_tree.hpp"
#include "reference/splay_tree.hpp"
#include "reference/treap.hpp"
#include "reference/tree_olken.hpp"
#include "seq/olken.hpp"
#include "tree/fenwick.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Olken's algorithm on Tree: the reference loop for a pointer tree, the
/// library's OlkenAnalyzer for the FenwickIndex it runs on.
template <typename Tree>
Histogram olken_on(std::span<const Addr> trace) {
  if constexpr (std::is_same_v<Tree, FenwickIndex>) {
    return olken_analysis(trace);
  } else {
    return tree_olken_analysis<Tree>(trace);
  }
}

template <typename Fn>
bench::BenchPoint measure(std::string name, std::uint64_t m,
                          std::uint64_t ops, int reps, Fn body) {
  std::vector<double> secs;
  secs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    body();
    secs.push_back(timer.seconds());
  }
  const double med = median(secs);
  bench::BenchPoint p;
  p.name = std::move(name);
  p.params = {{"m", m}};
  p.metrics = {{"ns_per_op", med * 1e9 / static_cast<double>(ops)}};
  return p;
}

template <typename Tree>
void tree_points(const char* tree_name, std::size_t refs, int reps,
                 std::vector<bench::BenchPoint>& points) {
  for (const std::uint64_t m : {std::uint64_t{1} << 10, std::uint64_t{1} << 14}) {
    ZipfWorkload w(m, 0.9, 7);
    const auto trace = generate_trace(w, refs);
    points.push_back(measure(std::string("olken_zipf_") + tree_name, m,
                             trace.size(), reps, [&trace] {
                               benchmark::DoNotOptimize(
                                   olken_on<Tree>(trace).total());
                             }));
  }
  {
    // Sequential sweep: every access lands on the tree's deepest key —
    // the splay tree's worst-ish case, the AVL tree's steady state.
    SequentialWorkload w(std::uint64_t{1} << 12);
    const auto trace = generate_trace(w, refs);
    points.push_back(measure(std::string("olken_stream_") + tree_name,
                             std::uint64_t{1} << 12, trace.size(), reps,
                             [&trace] {
                               benchmark::DoNotOptimize(
                                   olken_on<Tree>(trace).total());
                             }));
  }
  {
    // Raw insert/count/erase churn at a fixed resident size.
    const std::uint64_t window = std::uint64_t{1} << 12;
    points.push_back(measure(
        std::string("churn_") + tree_name, window, 4 * window, reps,
        [window] {
          Tree tree;
          for (Timestamp ts = 0; ts < 4 * window; ++ts) {
            tree.insert(ts, ts);
            if (ts >= window) {
              benchmark::DoNotOptimize(tree.count_greater(ts - window));
              tree.erase(ts - window);
            }
          }
        }));
  }
}

void run_trees_suite() {
  const auto refs =
      static_cast<std::size_t>(bench::env_u64("PARDA_BENCH_TREE_REFS", 1 << 16));
  const int reps =
      static_cast<int>(bench::env_u64("PARDA_BENCH_TREE_REPS", 3));
  const std::string json_path = bench::bench_json_path("BENCH_trees.json");

  std::vector<bench::BenchPoint> points;
  tree_points<SplayTree>("splay", refs, reps, points);
  tree_points<AvlTree>("avl", refs, reps, points);
  tree_points<Treap>("treap", refs, reps, points);
  tree_points<FenwickIndex>("fenwick", refs, reps, points);

  std::printf("\ntrees (refs=%zu, reps=%d)\n%-20s %8s %12s\n", refs, reps,
              "point", "m", "ns_per_op");
  for (const bench::BenchPoint& p : points) {
    std::printf("%-20s %8" PRIu64 " %12.2f\n", p.name.c_str(),
                p.params[0].second, p.metrics[0].second);
  }
  bench::write_bench_json(json_path, "trees", points);
}

}  // namespace
}  // namespace parda

int main() {
  parda::run_trees_suite();
  return 0;
}

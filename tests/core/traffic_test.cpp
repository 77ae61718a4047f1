// The traffic gate (ROADMAP item 4): the counters that say how much work
// and communication an analysis does, for four fixed geometries that mirror
// bench_e2e's workloads, checked exactly against traffic_golden.txt. The
// counters are deterministic functions of the input, so any change to them
// is a change in what the algorithm sends or touches, never noise. A change
// that means to move one regenerates the file with
//
//   PARDA_TRAFFIC_GOLDEN=write build/tests/core_traffic_test
//
// and states the move. This is its own binary because it turns the obs
// layer on for the whole process.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/file_analysis.hpp"
#include "core/parda.hpp"
#include "core/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime.hpp"
#include "trace/source.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "workload/parse.hpp"

namespace parda {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr std::size_t kRefs = std::size_t{1} << 16;
constexpr std::uint64_t kStreamBound = 4096;

/// Counter name -> value for one geometry.
using Counters = std::map<std::string, std::uint64_t>;

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/traffic_" +
         std::to_string(::getpid()) + "_" + name;
}

std::vector<Addr> trace_of(const char* spec, std::size_t refs) {
  return generate_trace(*parse_workload(spec, kSeed), refs);
}

/// Folds one analysis into `c`: records, messages and bytes add up over
/// analyses, peak residency takes the max. The engine.* and ingest.*
/// registry counters are read once per geometry, after all its analyses.
void add_result(const PardaResult& r, Counters& c) {
  for (const RankProfile& p : r.profiles) {
    c["core.records_forwarded"] += p.records_forwarded;
    c["core.records_received"] += p.records_received;
    c["core.peak_resident"] =
        std::max(c["core.peak_resident"], p.peak_resident);
  }
  c["comm.messages"] += r.stats.total_messages();
  c["comm.bytes_sent"] += r.stats.total_bytes();
}

void add_registry(Counters& c) {
  const obs::Registry& reg = obs::registry();
  c["engine.hash_probes"] = reg.counter_total("engine.hash_probes");
  c["ingest.bytes_copied"] = reg.counter_total("ingest.bytes_copied");
}

PardaOptions options(int np, std::uint64_t bound) {
  PardaOptions o;
  o.num_procs = np;
  o.bound = bound;
  return o;
}

/// zipf-trz: a chunked .trz of 8,192-reference chunks, decoded per rank.
Counters zipf_trz() {
  const std::string path = temp_path("zipf.trz");
  write_trace_chunked(path, trace_of("zipf:m=1000000,a=0.8", kRefs), 8192);
  Counters c;
  {
    ChunkedTrzSource source(path);
    comm::WorkerPool pool(4);
    add_result(parda_analyze_source_on(pool, source, options(4, kUnbounded)),
               c);
  }
  add_registry(c);
  std::remove(path.c_str());
  return c;
}

/// chase-mmap: a pointer-chase cycle longer than a rank's chunk, mapped.
Counters chase_mmap() {
  const std::string path = temp_path("chase.trc");
  write_trace_binary(path, trace_of("ptrchase:m=24576", kRefs));
  Counters c;
  {
    MmapTraceSource source(path);
    comm::WorkerPool pool(4);
    add_result(parda_analyze_source_on(pool, source, options(4, kUnbounded)),
               c);
  }
  add_registry(c);
  std::remove(path.c_str());
  return c;
}

/// stream-bounded: the file streamed through a pipe in phases of np x C
/// references under a bound, so the merge, Algorithm 6's state reduction
/// and eviction all run.
Counters stream_bounded() {
  const std::string path = temp_path("stream.trc");
  write_trace_binary(path, trace_of("spec:mcf,scale=100", kRefs));
  PardaOptions o = options(3, kStreamBound);
  o.chunk_words = 4096;
  comm::WorkerPool pool(3);
  const PardaResult r = parda_analyze_file_on(pool, path, o);
  std::remove(path.c_str());
  std::uint64_t phases = 0;
  for (const RankProfile& p : r.profiles) phases = std::max(phases, p.phases);
  EXPECT_GE(phases, 3u) << "the geometry must exercise Algorithm 6";
  Counters c;
  add_result(r, c);
  EXPECT_EQ(c["core.peak_resident"], kStreamBound);
  add_registry(c);
  return c;
}

/// small-windows: four fixed 16,384-reference windows analyzed back to
/// back on one warm session, as the serving layer runs them.
Counters small_windows() {
  constexpr std::size_t kWindow = 16384;
  const std::vector<Addr> trace = trace_of("zipf:m=8192,a=0.9", 4 * kWindow);
  core::PardaRuntime runtime(2);
  auto session = runtime.session(options(2, std::uint64_t{1} << 16));
  Counters c;
  for (std::size_t at = 0; at < trace.size(); at += kWindow) {
    const std::span<const Addr> window(trace.data() + at, kWindow);
    add_result(session.analyze(window), c);
  }
  add_registry(c);
  return c;
}

/// Every geometry's counters as sorted "geometry counter value" lines.
std::vector<std::string> measure() {
  const std::pair<const char*, Counters (*)()> geometries[] = {
      {"chase-mmap", chase_mmap},
      {"small-windows", small_windows},
      {"stream-bounded", stream_bounded},
      {"zipf-trz", zipf_trz},
  };
  std::vector<std::string> lines;
  for (const auto& [name, run] : geometries) {
    obs::registry().reset_values();
    for (const auto& [counter, value] : run()) {
      lines.push_back(std::string(name) + " " + counter + " " +
                      std::to_string(value));
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// The lines of `a` that `b` lacks, both sorted.
std::vector<std::string> missing_from(const std::vector<std::string>& a,
                                      const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

TEST(TrafficGate, CountersMatchTheGoldenFile) {
  obs::set_enabled(true);
  const std::vector<std::string> actual = measure();
  obs::set_enabled(false);

  const char* mode = std::getenv("PARDA_TRAFFIC_GOLDEN");
  if (mode != nullptr && std::string(mode) == "write") {
    std::ofstream out(PARDA_TRAFFIC_GOLDEN_PATH);
    for (const std::string& line : actual) out << line << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << PARDA_TRAFFIC_GOLDEN_PATH;
    std::printf("wrote %zu lines to %s\n", actual.size(),
                PARDA_TRAFFIC_GOLDEN_PATH);
    return;
  }

  const std::vector<std::string> golden =
      read_lines(PARDA_TRAFFIC_GOLDEN_PATH);
  ASSERT_FALSE(golden.empty()) << "no golden lines in "
                               << PARDA_TRAFFIC_GOLDEN_PATH;
  if (actual == golden) return;
  std::ostringstream diff;
  for (const std::string& line : missing_from(golden, actual)) {
    diff << "  golden: " << line << '\n';
  }
  for (const std::string& line : missing_from(actual, golden)) {
    diff << "  actual: " << line << '\n';
  }
  ADD_FAILURE() << "traffic differs from " << PARDA_TRAFFIC_GOLDEN_PATH
                << ":\n"
                << diff.str()
                << "If the change means to move these counters, regenerate "
                   "the file with\n  PARDA_TRAFFIC_GOLDEN=write "
                   "build/tests/core_traffic_test\nand state the move.";
}

}  // namespace
}  // namespace parda

// The Figure 3 framework end to end: an instrumented program (the mini-Pin
// VM) streams its memory trace through a pipe into the multi-phase online
// Parda analysis, concurrently with execution — no trace file is ever
// stored.
//
//   ./online_streaming --program=matmul --n=48 --procs=4 --chunk=4096
#include <cstdio>
#include <string>

#include "core/parda.hpp"
#include "hist/mrc.hpp"
#include "trace/trace_pipe.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "vm/programs.hpp"
#include "vm/tracer.hpp"

int main(int argc, char** argv) {
  using namespace parda;

  std::string program_name = "matmul";
  std::uint64_t n = 48;
  std::uint64_t rounds = 4;
  int procs = 4;
  std::uint64_t chunk = 4096;
  std::uint64_t pipe_words = 1 << 16;
  std::uint64_t bound = 0;

  CliParser cli(
      "Run an instrumented VM program and analyze its trace online "
      "(paper Figure 3)");
  cli.add_flag("program", &program_name,
               "vector_sum | smooth | matmul | list_chase");
  cli.add_flag("n", &n, "problem size");
  cli.add_flag("rounds", &rounds, "passes/rounds for iterative programs");
  cli.add_flag("procs", &procs, "analysis ranks");
  cli.add_flag("chunk", &chunk, "per-rank chunk size C (phase = np*C)");
  cli.add_flag("pipe", &pipe_words, "pipe capacity in words");
  cli.add_flag("bound", &bound, "cache bound B (0 = unbounded)");
  std::uint64_t watchdog_ms = 0;
  cli.add_flag("watchdog-ms", &watchdog_ms,
               "stall watchdog sampling interval (0 = off)");
  cli.parse(argc, argv);

  if (procs == 0) usage_error("--procs must be positive");
  if (chunk == 0) usage_error("--chunk must be positive");
  if (pipe_words == 0) usage_error("--pipe must be positive");

  vm::Program program;
  if (program_name == "vector_sum") {
    program = vm::vector_sum(n);
  } else if (program_name == "smooth") {
    program = vm::smooth_passes(n, rounds);
  } else if (program_name == "matmul") {
    program = vm::matmul(n);
  } else if (program_name == "list_chase") {
    program = vm::list_chase(n, rounds);
  } else {
    usage_error("unknown program '%s' (expected vector_sum | smooth | "
                "matmul | list_chase)",
                program_name.c_str());
  }

  WallTimer timer;
  std::uint64_t instructions = 0;
  PipeTraceSource source(pipe_words, [&](TracePipe& pipe) {
    instructions = vm::stream_program(program, pipe, 1024).instructions;
  });

  PardaOptions options;
  options.num_procs = procs;
  options.chunk_words = chunk;
  options.bound = bound;
  if (watchdog_ms > 0) {
    options.run_options.watchdog_interval =
        std::chrono::milliseconds(watchdog_ms);
  }
  PardaResult result;
  try {
    // A crashed VM reads as a failure here, not as a clean end-of-trace.
    result = parda_analyze(source, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "online_streaming: analysis failed: %s\n", e.what());
    return kExitRuntime;
  }
  const double elapsed = timer.seconds();

  const Histogram& hist = result.hist;
  std::printf("program %s: %s instructions, %s memory accesses\n",
              program.name.c_str(), with_commas(instructions).c_str(),
              with_commas(hist.total()).c_str());
  const std::string bound_note =
      bound == 0 ? "" : ", bound " + words_human(bound);
  std::printf("analysis: %d ranks, chunk %s, pipe %s%s\n", procs,
              words_human(chunk).c_str(), words_human(pipe_words).c_str(),
              bound_note.c_str());
  std::printf("wall time %.3fs; busiest rank %.3fs; %s messages, %s bytes\n\n",
              elapsed, result.stats.max_busy(),
              with_commas(result.stats.total_messages()).c_str(),
              with_commas(result.stats.total_bytes()).c_str());

  TablePrinter table({"cache size", "miss ratio"});
  for (const MrcPoint& p :
       miss_ratio_curve_pow2(hist, hist.max_distance() + 2)) {
    table.add_row(
        {words_human(p.cache_size), TablePrinter::fmt(p.miss_ratio, 4)});
  }
  table.print();
  return 0;
}

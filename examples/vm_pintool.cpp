// vm_pintool: the closest analogue of running "pin -t memtrace -- app"
// in this repository — assemble a program from a .s file (or use a named
// builtin), execute it under instrumentation, and analyze its memory
// trace online through the pipe (paper Figure 3).
//
//   ./vm_pintool --asm=myprog.s --procs=4
//   ./vm_pintool --program=bubble_sort --n=128
#include <cstdio>
#include <string>

#include "core/parda.hpp"
#include "hist/mrc.hpp"
#include "trace/trace_pipe.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "vm/assembler.hpp"
#include "vm/programs.hpp"
#include "vm/tracer.hpp"

int main(int argc, char** argv) {
  using namespace parda;

  std::string asm_path;
  std::string program_name = "bubble_sort";
  std::uint64_t n = 128;
  std::uint64_t rounds = 4;
  int procs = 4;
  std::uint64_t bound = 0;

  CliParser cli(
      "Run a VM program under instrumentation and analyze its memory "
      "trace online");
  cli.add_flag("asm", &asm_path, "assembly file to run (overrides "
                                 "--program)");
  cli.add_flag("program", &program_name,
               "builtin: vector_sum | smooth | matmul | list_chase | "
               "binary_search | bubble_sort");
  cli.add_flag("n", &n, "builtin problem size");
  cli.add_flag("rounds", &rounds, "builtin rounds/queries");
  cli.add_flag("procs", &procs, "analysis ranks");
  cli.add_flag("bound", &bound, "cache bound (0 = unbounded)");
  cli.parse(argc, argv);

  vm::Program program;
  if (!asm_path.empty()) {
    program = vm::assemble_file(asm_path);
  } else if (program_name == "vector_sum") {
    program = vm::vector_sum(n);
  } else if (program_name == "smooth") {
    program = vm::smooth_passes(n, rounds);
  } else if (program_name == "matmul") {
    program = vm::matmul(n);
  } else if (program_name == "list_chase") {
    program = vm::list_chase(n, rounds);
  } else if (program_name == "binary_search") {
    program = vm::binary_search(n, rounds * 100);
  } else if (program_name == "bubble_sort") {
    program = vm::bubble_sort(n);
  } else {
    std::fprintf(stderr, "unknown program %s\n", program_name.c_str());
    return 1;
  }

  vm::StreamResult run_result;
  PipeTraceSource source(1 << 16, [&](TracePipe& pipe) {
    run_result = vm::stream_program(program, pipe);
  });

  PardaOptions options;
  options.num_procs = procs;
  options.bound = bound;
  options.chunk_words = 4096;
  const PardaResult result = parda_analyze(source, options);

  std::printf("program %s: %s instructions, %s memory accesses, %s distinct"
              "\n\n",
              program.name.c_str(),
              with_commas(run_result.instructions).c_str(),
              with_commas(result.hist.total()).c_str(),
              with_commas(result.hist.infinities()).c_str());
  TablePrinter table({"cache size", "miss ratio"});
  for (const MrcPoint& p :
       miss_ratio_curve_pow2(result.hist, result.hist.max_distance() + 2)) {
    table.add_row(
        {words_human(p.cache_size), TablePrinter::fmt(p.miss_ratio, 4)});
  }
  table.print();
  return 0;
}

// Glue between the instrumented VM and the trace plumbing: runs a program
// while streaming its accesses into a TracePipe in blocks — the producer
// half of the paper's Figure 3.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace_pipe.hpp"
#include "util/types.hpp"
#include "vm/machine.hpp"

namespace parda::vm {

struct StreamResult {
  std::uint64_t instructions = 0;
  std::uint64_t accesses = 0;
};

/// Executes the program, writing its address trace into the pipe in blocks
/// of block_words: a PipeTraceSource producer.
inline StreamResult stream_program(const Program& program, TracePipe& pipe,
                                   std::size_t block_words = 1024) {
  Machine machine(program);
  std::vector<Addr> block;
  block.reserve(block_words);
  StreamResult result;
  result.instructions = machine.run([&](Addr a) {
    block.push_back(a);
    if (block.size() == block_words) {
      pipe.write(std::move(block));
      block = std::vector<Addr>();
      block.reserve(block_words);
    }
  });
  pipe.write(std::move(block));
  result.accesses = machine.mem_accesses();
  return result;
}

}  // namespace parda::vm

// Streamed analysis of an on-disk trace (DESIGN.md "Ingest"): a file
// producer streams the file through a bounded TracePipe into the
// multi-phase online algorithm, so traces larger than memory are analyzed
// at O(pipe + rank state) footprint (the Figure 3 shape). The offline
// containers reach the ranks through open_offline_source
// (trace/source.hpp) and parda_analyze_source_on instead.
#pragma once

#include <string>

#include "core/parda.hpp"
#include "trace/source.hpp"

namespace parda {

/// Streams a binary (.trc/.bin) trace file through a bounded pipe on a
/// caller-owned WorkerPool. Validates the file's header, then analyzes it
/// as a PipeTraceSource whose producer reads the file into a pipe of
/// pipe_words (the paper's pipe-size knob); a producer error (including
/// the FaultPlan's producer_fail_after injection) is rethrown as the root
/// cause.
PardaResult parda_analyze_file_on(comm::WorkerPool& pool,
                                  const std::string& path,
                                  const PardaOptions& options,
                                  std::size_t pipe_words = 1 << 20);

}  // namespace parda

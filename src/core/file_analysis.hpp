// Analysis of on-disk traces, by ingest mode (DESIGN.md "Ingest"):
//
//   kPipe — the historical path: a file producer streams the file
//           through a bounded TracePipe into the multi-phase online
//           algorithm, so traces larger than memory are analyzed at
//           O(pipe + rank state) footprint (the Figure 3 shape).
//   kMmap — zero-copy offline: the file is mmap'd and ranks analyze
//           disjoint views of the mapping with Algorithm 3.
//   kTrz  — chunked-compressed offline: a v2 .trz archive's chunks are
//           decoded per rank, in parallel, then analyzed offline.
#pragma once

#include <string>

#include "core/parda.hpp"
#include "trace/source.hpp"

namespace parda {

/// Analyzes a trace file on a caller-owned WorkerPool through the chosen
/// ingest path. kPipe validates the file's header, then analyzes it as a
/// PipeTraceSource whose producer reads the file into a bounded pipe
/// (pipe_words is the paper's pipe-size knob; it is ignored by the offline
/// modes); a producer error (including the FaultPlan's producer_fail_after
/// injection) is rethrown as the root cause. kMmap expects a binary
/// .trc/.bin file; kTrz expects a chunked v2 .trz archive.
PardaResult parda_analyze_file_on(comm::WorkerPool& pool,
                                  const std::string& path,
                                  const PardaOptions& options,
                                  std::size_t pipe_words = 1 << 20,
                                  IngestMode ingest = IngestMode::kPipe);

}  // namespace parda

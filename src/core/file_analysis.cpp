#include "core/file_analysis.hpp"

#include <optional>

#include "comm/fault.hpp"
#include "obs/metrics.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_pipe.hpp"

namespace parda {

PardaResult parda_analyze_file_on(comm::WorkerPool& pool,
                                  const std::string& path,
                                  const PardaOptions& options,
                                  std::size_t pipe_words) {
  BinaryTraceReader reader(path);

  // Deterministic producer fault, if the run's FaultPlan asks for one.
  std::optional<std::uint64_t> fail_after;
  if (options.run_options.fault_plan != nullptr) {
    fail_after = options.run_options.fault_plan->producer_fail_after();
  }

  PipeTraceSource source(pipe_words, [&](TracePipe& pipe) {
    // Size reads from the pipe capacity, but never below 64K words
    // (512KB): small pipes must not translate into small file reads.
    constexpr std::size_t kMinReadBlockWords = std::size_t{64} << 10;
    const std::size_t block = std::max(kMinReadBlockWords, pipe_words / 4);
    std::uint64_t written = 0;
    while (true) {
      std::vector<Addr> chunk = reader.read_words(block);
      if (chunk.empty()) break;
      if (fail_after.has_value() && written + chunk.size() > *fail_after) {
        chunk.resize(static_cast<std::size_t>(*fail_after - written));
        if (!chunk.empty()) pipe.write(std::move(chunk));
        throw comm::FaultInjectedError(
            "injected trace producer failure after " +
            std::to_string(*fail_after) + " words");
      }
      written += chunk.size();
      pipe.write(std::move(chunk));
    }
    if (obs::enabled()) {
      // Every reference crossed the pipe as a copy; the offline sources
      // keep this counter at 0, which is their zero-copy proof.
      obs::registry().counter("ingest.bytes_copied")
          .add(written * sizeof(Addr));
    }
  });
  return parda_analyze_source_on(pool, source, options);
}

}  // namespace parda

#include "core/file_analysis.hpp"

#include <memory>
#include <optional>
#include <thread>

#include "comm/fault.hpp"
#include "obs/metrics.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_pipe.hpp"

namespace parda {

PardaResult parda_analyze_file_on(comm::WorkerPool& pool,
                                  const std::string& path,
                                  const PardaOptions& options,
                                  std::size_t pipe_words,
                                  IngestMode ingest) {
  if (ingest != IngestMode::kPipe) {
    const std::unique_ptr<TraceSource> source =
        open_offline_source(path, ingest);
    return parda_analyze_source_on(pool, *source, options);
  }

  BinaryTraceReader reader(path);
  TracePipe pipe(pipe_words);

  // Deterministic producer fault, if the run's FaultPlan asks for one.
  std::optional<std::uint64_t> fail_after;
  if (options.run_options.fault_plan != nullptr) {
    fail_after = options.run_options.fault_plan->producer_fail_after();
  }

  std::exception_ptr producer_error;
  std::thread producer([&] {
    try {
      // Size reads from the pipe capacity, but never below 64K words
      // (512KB): small pipes must not translate into small file reads.
      constexpr std::size_t kMinReadBlockWords = std::size_t{64} << 10;
      const std::size_t block =
          std::max(kMinReadBlockWords, pipe_words / 4);
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
      pipe.close();
    } catch (...) {
      // Poison the pipe so the consumer stops mid-phase instead of
      // analyzing the truncated stream as if it were complete. (If the
      // consumer poisoned it first, this keeps the earlier error.)
      producer_error = std::current_exception();
      pipe.close_with_error(std::current_exception());
    }
  });

  PipeTraceSource source(pipe);
  PardaResult result;
  try {
    result = parda_analyze_source_on(pool, source, options);
  } catch (...) {
    // Wake a producer blocked on a full pipe before joining it; its next
    // write throws and the thread exits.
    pipe.close_with_error(std::current_exception());
    producer.join();
    // Attribute the failure to its root: a producer error reaches the
    // consumer by rethrow, so prefer the producer's own exception.
    if (producer_error) std::rethrow_exception(producer_error);
    throw;
  }
  producer.join();
  if (producer_error) std::rethrow_exception(producer_error);
  return result;
}

}  // namespace parda

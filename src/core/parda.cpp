#include "core/parda.hpp"

#include <exception>
#include <thread>

#include "seq/bounded.hpp"

namespace parda {

namespace detail {

comm::RunStats run_analysis_job(
    comm::WorkerPool& pool, TraceSource& source, const PardaOptions& options,
    const std::function<void(comm::Comm&, TracePipe*)>& rank_body) {
  const int np = options.num_procs;
  PARDA_CHECK(np >= 1);
  if (source.offline()) {
    source.partition(np);
    return pool.run_job(
        np, [&](comm::Comm& comm) { rank_body(comm, nullptr); },
        options.run_options);
  }
  PARDA_CHECK(options.chunk_words >= 1);
  PARDA_CHECK_MSG(options.chunk_words <=
                      SIZE_MAX / static_cast<std::size_t>(np),
                  "chunk_words %zu times %d ranks overflows a phase length",
                  options.chunk_words, np);
  PARDA_CHECK(options.space_optimized);

  TracePipe pipe(source.pipe_words());
  std::exception_ptr producer_error;
  std::thread producer;
  const comm::TransportSpec& transport = options.run_options.transport;
  if (!transport.distributed() || transport.local_rank == 0) {
    producer = std::thread([&] {
      try {
        source.produce(pipe);
        pipe.close();
      } catch (...) {
        // Poison the pipe so the consumer stops mid-phase instead of
        // analyzing the truncated stream as if it were complete. (If the
        // consumer poisoned it first, this keeps the earlier error.)
        producer_error = std::current_exception();
        pipe.close_with_error(producer_error);
      }
    });
  }
  // Attributes a failure to its root: a producer error reaches the
  // consumer by rethrow, so the producer's own exception goes first.
  const auto join_producer = [&] {
    if (producer.joinable()) producer.join();
    if (producer_error) std::rethrow_exception(producer_error);
  };
  comm::RunStats stats;
  try {
    stats = pool.run_job(
        np, [&](comm::Comm& comm) { rank_body(comm, &pipe); },
        options.run_options);
  } catch (...) {
    // Wake a producer blocked on a full pipe before joining it; its next
    // write throws and the thread exits.
    pipe.close_with_error(std::current_exception());
    join_producer();
    throw;
  }
  join_producer();
  return stats;
}

}  // namespace detail

Histogram reduce_histogram(comm::Comm& comm, const Histogram& mine,
                           int root) {
  // Binomial-tree merge in virtual rank space rooted at `root`, mirroring
  // MPI_Reduce: ceil(log2(np)) rounds, each rank sends exactly once.
  const int np = comm.size();
  const int me = (comm.rank() - root + np) % np;
  Histogram acc = mine;
  for (int step = 1; step < np; step <<= 1) {
    if ((me & step) != 0) {
      const int dest = ((me - step) + root) % np;
      // Move the serialized histogram into the message; the receiver's
      // recv moves it back out, so the reduction never copies payloads.
      comm.send(dest, kTagHistogram, acc.to_words());
      return {};
    }
    if (me + step < np) {
      const int src = (me + step + root) % np;
      const std::vector<std::uint64_t> words =
          comm.recv<std::uint64_t>(src, kTagHistogram);
      acc.merge(Histogram::from_words(words));
    }
  }
  return acc;
}

Histogram sequential_reference(std::span<const Addr> trace,
                               std::uint64_t bound) {
  return bounded_analysis<SplayTree>(trace, bound);
}

}  // namespace parda

#include "core/parda.hpp"

#include "seq/bounded.hpp"

namespace parda {

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

// Message tags used between Parda ranks.
//
// Both record streams are bare addresses in time order, oldest first, as in
// the paper's pseudocode: a rank's local infinities travel leftward
// (Algorithm 3) in the order of their first references, and its resident
// set travels to the phase holder (Algorithm 6) in the order of their last
// references. The receiver rebuilds its state from that order alone.
#pragma once

namespace parda {

/// Message tags (the comm runtime matches on (src, tag) like MPI).
enum MsgTag : int {
  kTagInfinities = 1,  // local-infinity addresses, rank p -> p-1
  kTagState = 2,       // resident addresses for the phase reduce
  kTagHistogram = 3,   // closing reduction: histogram + profiles
  kTagChunk = 4,       // trace chunk scatter from the pipe reader
  kTagControl = 5,     // per-phase reference counts
};

}  // namespace parda

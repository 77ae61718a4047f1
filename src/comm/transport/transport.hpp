// comm::Transport — the pluggable data plane under Comm's send/recv/
// collective surface (DESIGN.md "Transports").
//
// The split of responsibilities that keeps the fault-tolerance and obs
// layers transport-agnostic:
//   - MATCHING stays local: every rank's blocking receive waits on its own
//     in-process Mailbox, whatever the wire. Poisoning, per-op deadlines,
//     the stall watchdog's rank boards, and FIFO/wildcard matching are
//     therefore identical across transports.
//   - MOVEMENT is the transport's job: post() carries one enveloped
//     payload from src to dst, delivering into dst's Mailbox — directly
//     (threads: the payload handle moves by refcount, zero-copy) or by
//     serializing frames through a ring/socket and having a pump thread
//     hand them to deliver_frame(), which checks the envelope against the
//     ring or connection it arrived on before anything reaches a mailbox.
//   - ABORT propagation crosses processes as a control frame
//     (broadcast_abort); within a process it stays the existing mailbox
//     poisoning.
//
// Lifecycle: a World owns one Transport for its lifetime. start()/stop()
// bracket the pump threads; clear() runs between pooled jobs with the
// pumps stopped, dropping any undelivered bytes (an aborted job may leave
// partial frames; clear(aborted=true) must restore stream sync).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "comm/transport/frame.hpp"
#include "comm/transport/spec.hpp"

namespace parda::comm {

struct Message;

namespace detail {
class World;
}

class Transport {
 public:
  virtual ~Transport() = default;

  /// Moves one message toward dst's mailbox. Called from rank src's
  /// thread; may block on backpressure (full ring / full send queue), and
  /// must bail by throwing the world's abort once the run is aborted.
  virtual void post(int src, int dst, Message&& msg) = 0;

  /// Distributed worlds: push an abort control frame to every remote rank
  /// so their pumps poison their local mailboxes. The frame's src, this
  /// process's rank, is the origin of the abort: a distributed World only
  /// ever aborts on behalf of the rank it hosts. In-process worlds have no
  /// remotes; the default no-op is correct.
  virtual void broadcast_abort(const std::string& cause);

  /// Starts/stops the transport's pump threads. stop() joins; after it
  /// returns the transport touches no World state.
  virtual void start() {}
  virtual void stop() {}

  /// Pooled reuse, called between jobs with pumps stopped: drop every
  /// undelivered byte and restore stream sync. `aborted` marks that the
  /// previous job may have abandoned writes mid-frame.
  virtual void clear(bool aborted);
};

/// Builds the transport for `spec` (already validated against np). Returns
/// nullptr for the threads kind: the World's direct mailbox path IS that
/// transport, and keeping it null keeps the default wire free of virtual
/// dispatch.
std::unique_ptr<Transport> make_transport(const TransportSpec& spec,
                                          detail::World& world, int np);

namespace transport {
/// The one consumer-side delivery of a decoded frame, shared by every
/// serializing transport's pump. `from` is the rank that owns the sending
/// end of the ring or connection the frame arrived on, `dst` the local
/// rank it is for. Every frame must name `from` as its src, or this throws
/// CheckError (which the pump turns into a job abort): a frame's envelope
/// is never trusted as a mailbox bucket or as an abort's origin. An abort
/// frame then poisons the world on behalf of `from`; a data frame of an
/// earlier pooled generation is dropped.
void deliver_frame(detail::World& world, int from, int dst,
                   const FrameHeader& header,
                   std::vector<std::byte>&& payload);

// Concrete factories (implementation detail of make_transport; exposed
// for the transport unit tests).
std::unique_ptr<Transport> make_shm_transport(const TransportSpec& spec,
                                              detail::World& world, int np);
std::unique_ptr<Transport> make_tcp_transport(const TransportSpec& spec,
                                              detail::World& world, int np);
}  // namespace transport

}  // namespace parda::comm

#include "comm/transport/transport.hpp"

#include "comm/comm.hpp"
#include "util/check.hpp"

namespace parda::comm {

void Transport::broadcast_abort(const std::string& cause) { (void)cause; }

void Transport::clear(bool aborted) { (void)aborted; }

namespace transport {

void deliver_frame(detail::World& world, int from, int dst,
                   const FrameHeader& header,
                   std::vector<std::byte>&& payload) {
  PARDA_CHECK_MSG(header.src == from,
                  "transport frame: src %d on the wire from rank %d",
                  header.src, from);
  if (header.kind == static_cast<std::uint32_t>(FrameKind::kAbort)) {
    // An abort frame's sender is the failed rank.
    world.abort_remote(
        from, std::string(reinterpret_cast<const char*>(payload.data()),
                          payload.size()));
    return;
  }
  if (header.generation != world.generation()) {
    return;  // leftover of an earlier pooled job
  }
  Message msg;
  msg.src = header.src;
  msg.tag = header.tag;
  msg.payload = Payload::own(std::move(payload));
  world.mailbox(dst).push(std::move(msg));
}

}  // namespace transport

std::unique_ptr<Transport> make_transport(const TransportSpec& spec,
                                          detail::World& world, int np) {
  switch (spec.kind) {
    case TransportKind::kThreads:
      return nullptr;  // the World's direct mailbox path
    case TransportKind::kShm:
      return transport::make_shm_transport(spec, world, np);
    case TransportKind::kTcp:
      return transport::make_tcp_transport(spec, world, np);
  }
  PARDA_CHECK_MSG(false, "unknown transport kind %d",
                  static_cast<int>(spec.kind));
  return nullptr;
}

}  // namespace parda::comm

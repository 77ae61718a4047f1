// The tcp transport: one TCP connection per rank pair, length-prefixed
// frames, a single IO thread per process running a poll() loop. Sends go
// through bounded per-connection queues — a producer whose queue is full
// blocks (backpressure) until the IO thread's non-blocking writes drain
// it; receives are reassembled incrementally by a FrameReader per
// connection and delivered into the destination rank's mailbox.
//
// In-process worlds build a loopback mesh over an ephemeral listener (both
// ends of every connection live in this process, so the wire — kernel
// socket buffers included — is real even though no second process is).
// Distributed worlds take spec.peers[r] = host:port per rank: every rank
// listens on its own port, connects to all lower ranks, and accepts from
// all higher ranks, identifying itself with a 4-byte rank handshake.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "comm/comm.hpp"
#include "comm/transport/ring.hpp"
#include "comm/transport/transport.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"

namespace parda::comm::transport {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  PARDA_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                  "tcp transport: fcntl(O_NONBLOCK) failed: %s",
                  std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Blocking-fd full write/read for the mesh handshakes.
bool write_full(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_full(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

HostPort split_host_port(const std::string& endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  PARDA_CHECK_MSG(colon != std::string::npos && colon + 1 < endpoint.size(),
                  "tcp peer '%s' is not host:port", endpoint.c_str());
  const std::optional<std::uint64_t> port =
      parse_u64(std::string_view(endpoint).substr(colon + 1), 65535);
  PARDA_CHECK_MSG(port && *port > 0, "tcp peer '%s' has a bad port",
                  endpoint.c_str());
  return {endpoint.substr(0, colon), static_cast<std::uint16_t>(*port)};
}

class TcpTransport final : public Transport {
 public:
  TcpTransport(const TransportSpec& spec, detail::World& world, int np)
      : world_(world),
        np_(np),
        local_rank_(spec.local_rank),
        sendq_bytes_(spec.sendq_bytes),
        channels_(static_cast<std::size_t>(np) *
                  static_cast<std::size_t>(np)) {
    int pipefd[2];
    PARDA_CHECK_MSG(::pipe2(pipefd, O_NONBLOCK) == 0,
                    "tcp transport: pipe2 failed: %s", std::strerror(errno));
    wake_rd_ = pipefd[0];
    wake_wr_ = pipefd[1];
    if (local_rank_ < 0) {
      build_inprocess_mesh();
    } else {
      build_distributed_mesh(spec);
    }
  }

  ~TcpTransport() override {
    stop();
    close_mesh();
    ::close(wake_rd_);
    ::close(wake_wr_);
  }

  void post(int src, int dst, Message&& msg) override {
    Channel& ch = channel(src, dst);
    FrameHeader header;
    header.kind = static_cast<std::uint32_t>(FrameKind::kData);
    header.src = msg.src;
    header.tag = msg.tag;
    header.generation = world_.generation();
    header.payload_bytes = msg.payload.size_bytes();
    std::vector<std::byte> frame = encode_frame(header, msg.payload.bytes());
    {
      std::unique_lock lock(ch.mu);
      // Backpressure: wait for queue space. A frame larger than the whole
      // bound is still admitted when the queue is empty, so the bound
      // limits memory without deadlocking oversized messages.
      while (!ch.queue.empty() &&
             ch.queued_bytes + frame.size() > sendq_bytes_) {
        if (world_.aborted()) world_.throw_aborted();
        PARDA_CHECK_MSG(!ch.closed,
                        "tcp transport: connection %d->%d is down", src, dst);
        ch.cv.wait_for(lock, std::chrono::milliseconds(10));
      }
      PARDA_CHECK_MSG(!ch.closed,
                      "tcp transport: connection %d->%d is down", src, dst);
      ch.queued_bytes += frame.size();
      ch.queue.push_back(std::move(frame));
    }
    wake_io();
  }

  void broadcast_abort(const std::string& cause) override {
    if (local_rank_ < 0) return;  // in-process: local poisoning reached all
    FrameHeader header;
    header.kind = static_cast<std::uint32_t>(FrameKind::kAbort);
    header.src = local_rank_;  // the origin: only the failing rank sends
    header.generation = world_.generation();
    header.payload_bytes = cause.size();
    const std::span<const std::byte> payload{
        reinterpret_cast<const std::byte*>(cause.data()), cause.size()};
    for (int dst = 0; dst < np_; ++dst) {
      if (dst == local_rank_) continue;
      Channel& ch = channel(local_rank_, dst);
      std::lock_guard lock(ch.mu);
      if (ch.closed) continue;
      // Control frames bypass the backpressure bound: an abort must not
      // block behind a full data queue. The IO thread's stop linger gives
      // them a bounded chance to flush before teardown.
      std::vector<std::byte> frame = encode_frame(header, payload);
      ch.queued_bytes += frame.size();
      ch.queue.push_back(std::move(frame));
    }
    wake_io();
  }

  void start() override {
    stop_.store(false, std::memory_order_release);
    io_ = std::thread([this] { io_main(); });
  }

  void stop() override {
    if (!io_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    wake_io();
    io_.join();
  }

  void clear(bool aborted) override {
    // Pooled in-process reuse only; the IO thread is stopped. A partially
    // flushed frame (head_off != 0) means the byte stream is desynced
    // mid-frame and the mesh must be rebuilt; whole undelivered frames are
    // harmless — the next job's generation filter drops them on receipt.
    bool rebuild = aborted;
    for (auto& ch : channels_) {
      if (ch == nullptr) continue;
      std::lock_guard lock(ch->mu);
      rebuild |= ch->head_off != 0;
      rebuild |= ch->closed;
      ch->queue.clear();
      ch->queued_bytes = 0;
      ch->head_off = 0;
      ch->reader.reset();
    }
    if (rebuild) {
      close_mesh();
      for (auto& ch : channels_) {
        if (ch != nullptr) ch->closed = false;
      }
      build_inprocess_mesh();
    }
  }

 private:
  struct Channel {
    int fd = -1;
    int owner = -1;  // local rank that receives on this end
    int peer = -1;   // rank on the other end
    std::mutex mu;
    std::condition_variable cv;  // producers waiting for queue space
    std::deque<std::vector<std::byte>> queue;
    std::size_t queued_bytes = 0;
    std::size_t head_off = 0;  // bytes of queue.front() already written
    FrameReader reader;
    // Written by the IO thread (EOF / write error), read by producers in
    // post(); atomic so the flag needs no lock on the IO side.
    std::atomic<bool> closed{false};
  };

  Channel& channel(int owner, int peer) {
    auto& slot = channels_[static_cast<std::size_t>(owner) *
                               static_cast<std::size_t>(np_) +
                           static_cast<std::size_t>(peer)];
    PARDA_CHECK_MSG(slot != nullptr, "tcp transport: no channel %d->%d",
                    owner, peer);
    return *slot;
  }

  Channel& make_channel(int owner, int peer, int fd) {
    auto& slot = channels_[static_cast<std::size_t>(owner) *
                               static_cast<std::size_t>(np_) +
                           static_cast<std::size_t>(peer)];
    if (slot == nullptr) slot = std::make_unique<Channel>();
    set_nonblocking(fd);
    set_nodelay(fd);
    slot->fd = fd;
    slot->owner = owner;
    slot->peer = peer;
    return *slot;
  }

  void close_mesh() {
    for (auto& ch : channels_) {
      if (ch != nullptr && ch->fd >= 0) {
        ::close(ch->fd);
        ch->fd = -1;
      }
    }
  }

  void wake_io() {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t w = ::write(wake_wr_, &byte, 1);
    // EAGAIN (pipe full) is fine: a wakeup is already pending.
  }

  // --- mesh construction --------------------------------------------------

  void build_inprocess_mesh() {
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    PARDA_CHECK_MSG(lfd >= 0, "tcp transport: socket failed: %s",
                    std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    PARDA_CHECK_MSG(
        ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
            ::listen(lfd, np_ * np_) == 0,
        "tcp transport: bind/listen on loopback failed: %s",
        std::strerror(errno));
    socklen_t len = sizeof(addr);
    PARDA_CHECK(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr),
                              &len) == 0);
    for (int i = 0; i < np_; ++i) {
      for (int j = i + 1; j < np_; ++j) {
        const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
        PARDA_CHECK_MSG(
            cfd >= 0 && ::connect(cfd, reinterpret_cast<sockaddr*>(&addr),
                                  sizeof(addr)) == 0,
            "tcp transport: loopback connect failed: %s",
            std::strerror(errno));
        const std::uint32_t hello[2] = {static_cast<std::uint32_t>(i),
                                        static_cast<std::uint32_t>(j)};
        PARDA_CHECK(write_full(cfd, hello, sizeof(hello)));
        const int afd = ::accept(lfd, nullptr, nullptr);
        PARDA_CHECK_MSG(afd >= 0, "tcp transport: loopback accept failed: %s",
                        std::strerror(errno));
        std::uint32_t got[2] = {0, 0};
        PARDA_CHECK(read_full(afd, got, sizeof(got)));
        PARDA_CHECK_MSG(got[0] == hello[0] && got[1] == hello[1],
                        "tcp transport: loopback handshake mismatch");
        make_channel(i, j, cfd);
        make_channel(j, i, afd);
      }
    }
    ::close(lfd);
  }

  int connect_with_retry(const HostPort& target) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    const std::string port = std::to_string(target.port);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      addrinfo* res = nullptr;
      const int rc = ::getaddrinfo(target.host.c_str(), port.c_str(), &hints,
                                   &res);
      if (rc == 0) {
        const int fd = ::socket(res->ai_family, res->ai_socktype,
                                res->ai_protocol);
        if (fd >= 0) {
          if (::connect(fd, res->ai_addr, res->ai_addrlen) == 0) {
            ::freeaddrinfo(res);
            return fd;
          }
          ::close(fd);
        }
        ::freeaddrinfo(res);
      }
      PARDA_CHECK_MSG(std::chrono::steady_clock::now() < deadline,
                      "tcp transport: cannot reach peer %s:%u from rank %d",
                      target.host.c_str(), target.port, local_rank_);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  void build_distributed_mesh(const TransportSpec& spec) {
    const HostPort mine = split_host_port(
        spec.peers[static_cast<std::size_t>(local_rank_)]);
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    PARDA_CHECK_MSG(lfd >= 0, "tcp transport: socket failed: %s",
                    std::strerror(errno));
    int one = 1;
    ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(mine.port);
    PARDA_CHECK_MSG(
        ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
            ::listen(lfd, np_) == 0,
        "tcp transport: rank %d cannot listen on port %u: %s", local_rank_,
        mine.port, std::strerror(errno));
    // Deterministic direction: connect to every lower rank's listener,
    // accept from every higher rank. The 4-byte handshake names the
    // connector, so accept order never matters.
    for (int peer = 0; peer < local_rank_; ++peer) {
      const int fd = connect_with_retry(
          split_host_port(spec.peers[static_cast<std::size_t>(peer)]));
      const std::uint32_t me = static_cast<std::uint32_t>(local_rank_);
      PARDA_CHECK(write_full(fd, &me, sizeof(me)));
      make_channel(local_rank_, peer, fd);
    }
    for (int n = np_ - 1 - local_rank_; n > 0; --n) {
      pollfd pfd{lfd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, 30000);
      PARDA_CHECK_MSG(rc > 0,
                      "tcp transport: rank %d timed out waiting for %d "
                      "inbound connection(s)",
                      local_rank_, n);
      const int fd = ::accept(lfd, nullptr, nullptr);
      PARDA_CHECK_MSG(fd >= 0, "tcp transport: accept failed: %s",
                      std::strerror(errno));
      std::uint32_t peer = 0;
      PARDA_CHECK(read_full(fd, &peer, sizeof(peer)));
      PARDA_CHECK_MSG(static_cast<int>(peer) > local_rank_ &&
                          static_cast<int>(peer) < np_,
                      "tcp transport: handshake named bad rank %u", peer);
      make_channel(local_rank_, static_cast<int>(peer), fd);
    }
    ::close(lfd);
  }

  // --- IO loop ------------------------------------------------------------

  void io_main() {
    std::vector<Channel*> active;
    for (auto& ch : channels_) {
      if (ch != nullptr) active.push_back(ch.get());
    }
    std::vector<pollfd> pfds;
    std::optional<std::chrono::steady_clock::time_point> linger;
    try {
      for (;;) {
        if (stop_.load(std::memory_order_acquire)) {
          // Linger briefly to flush queued frames (notably abort control
          // frames) before tearing down; bounded so teardown never hangs
          // on a dead peer.
          if (!linger.has_value()) {
            linger = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(500);
          }
          if (queues_empty() ||
              std::chrono::steady_clock::now() >= *linger) {
            return;
          }
        }
        pfds.clear();
        pfds.push_back(pollfd{wake_rd_, POLLIN, 0});
        for (Channel* ch : active) {
          short events = 0;
          if (ch->fd >= 0 && !ch->closed) {
            events = POLLIN;
            std::lock_guard lock(ch->mu);
            if (!ch->queue.empty()) events |= POLLOUT;
          }
          pfds.push_back(pollfd{ch->fd >= 0 ? ch->fd : -1, events, 0});
        }
        ::poll(pfds.data(), pfds.size(), 50);
        if (pfds[0].revents & POLLIN) {
          char drain[64];
          while (::read(wake_rd_, drain, sizeof(drain)) > 0) {
          }
        }
        for (std::size_t i = 0; i < active.size(); ++i) {
          Channel* ch = active[i];
          const short revents = pfds[i + 1].revents;
          if (ch->fd < 0 || ch->closed) continue;
          if (revents & (POLLOUT | POLLERR | POLLHUP)) flush_channel(*ch);
          if (revents & (POLLIN | POLLERR | POLLHUP)) read_channel(*ch);
        }
      }
    } catch (const std::exception& e) {
      const int origin = local_rank_ < 0 ? 0 : local_rank_;
      world_.abort(origin, std::string("tcp transport: ") + e.what());
    }
  }

  bool queues_empty() {
    for (auto& ch : channels_) {
      if (ch == nullptr) continue;
      std::lock_guard lock(ch->mu);
      if (!ch->queue.empty()) return false;
    }
    return true;
  }

  void flush_channel(Channel& ch) {
    std::lock_guard lock(ch.mu);
    while (!ch.queue.empty()) {
      std::vector<std::byte>& buf = ch.queue.front();
      const ssize_t w = ::write(ch.fd, buf.data() + ch.head_off,
                                buf.size() - ch.head_off);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        ch.closed = true;
        break;
      }
      ch.head_off += static_cast<std::size_t>(w);
      if (ch.head_off == buf.size()) {
        ch.queued_bytes -= buf.size();
        ch.queue.pop_front();
        ch.head_off = 0;
        ch.cv.notify_all();  // backpressured producers re-check
      }
    }
  }

  void read_channel(Channel& ch) {
    // The reader and fd-read side are IO-thread-only: no lock needed.
    ch.reader.drain(
        [&ch](std::byte* buf, std::size_t max) -> std::size_t {
          const ssize_t r = ::read(ch.fd, buf, max);
          if (r > 0) return static_cast<std::size_t>(r);
          if (r == 0) ch.closed = true;  // EOF: peer tore down
          return 0;
        },
        [this, &ch](const FrameHeader& h, std::vector<std::byte>&& payload) {
          deliver_frame(world_, ch.peer, ch.owner, h, std::move(payload));
        });
  }

  detail::World& world_;
  const int np_;
  const int local_rank_;
  const std::size_t sendq_bytes_;
  std::vector<std::unique_ptr<Channel>> channels_;  // owner * np + peer
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::thread io_;
  std::atomic<bool> stop_{false};
};

}  // namespace

std::unique_ptr<Transport> make_tcp_transport(const TransportSpec& spec,
                                              detail::World& world, int np) {
  return std::make_unique<TcpTransport>(spec, world, np);
}

}  // namespace parda::comm::transport

// The shm transport: every cross-rank message serializes as a frame
// through the (src, dst) byte ring of a shared-memory segment, and a pump
// thread per process drains the rings of its local rank(s) into their
// mailboxes. In-process worlds map the segment anonymously (the wire is
// real, only the rendezvous is skipped); distributed worlds shm_open a
// named segment that rank 0's process creates and the others attach.
#include <chrono>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "comm/comm.hpp"
#include "comm/transport/ring.hpp"
#include "comm/transport/transport.hpp"
#include "util/check.hpp"

namespace parda::comm::transport {

namespace {

class ShmTransport final : public Transport {
 public:
  ShmTransport(const TransportSpec& spec, detail::World& world, int np)
      : world_(world),
        np_(np),
        local_rank_(spec.local_rank),
        readers_(static_cast<std::size_t>(np) * static_cast<std::size_t>(np)) {
    if (!spec.distributed() || spec.local_rank == 0) {
      segment_ = ShmSegment::create(np, spec.ring_bytes, spec.segment);
    } else {
      segment_ = ShmSegment::attach(spec.segment, np, spec.ring_bytes);
    }
  }

  ~ShmTransport() override { stop(); }

  void post(int src, int dst, Message&& msg) override {
    FrameHeader header;
    header.kind = static_cast<std::uint32_t>(FrameKind::kData);
    header.src = msg.src;
    header.tag = msg.tag;
    header.generation = world_.generation();
    const std::span<const std::byte> payload = msg.payload.bytes();
    header.payload_bytes = payload.size();
    // In a distributed world this process can have two producers on the
    // same (src, dst) ring — the rank thread and the telemetry forwarder —
    // and a frame must hit the SPSC ring as one contiguous byte stream.
    std::lock_guard lock(post_mu_);
    if (!write_frame(src, dst, header, payload, /*best_effort=*/false)) {
      // The only way a non-best-effort write bails is the world aborting
      // (or teardown racing a straggler send, which the abort also covers).
      world_.throw_aborted();
    }
  }

  void broadcast_abort(const std::string& cause) override {
    if (local_rank_ < 0) return;  // in-process: local poisoning reached all
    FrameHeader header;
    header.kind = static_cast<std::uint32_t>(FrameKind::kAbort);
    header.src = local_rank_;  // the origin: only the failing rank sends
    header.generation = world_.generation();
    header.payload_bytes = cause.size();
    const auto* bytes = reinterpret_cast<const std::byte*>(cause.data());
    std::lock_guard lock(post_mu_);
    for (int dst = 0; dst < np_; ++dst) {
      if (dst == local_rank_) continue;
      // Best effort with a bounded wait: a peer that already tore down
      // stops draining its rings, and an abort must never hang teardown.
      write_frame(local_rank_, dst, header, {bytes, cause.size()},
                  /*best_effort=*/true);
    }
  }

  void start() override {
    stop_.store(false, std::memory_order_release);
    pump_ = std::thread([this] { pump_main(); });
  }

  void stop() override {
    if (!pump_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    // The pump may be parked on its doorbell; bump every consumer's word
    // (sibling processes just re-check their own stop flags and re-park).
    for (int d = 0; d < np_; ++d) segment_.ring_doorbell(d);
    pump_.join();
  }

  void clear(bool aborted) override {
    // Pooled in-process reuse only (distributed worlds live for one run);
    // pumps are stopped, so the rings are quiesced. An aborted job may
    // have abandoned writes mid-frame — rewinding the rings and resetting
    // the readers restores stream sync either way.
    (void)aborted;
    for (int src = 0; src < np_; ++src) {
      for (int dst = 0; dst < np_; ++dst) {
        if (src == dst) continue;
        segment_.ring(src, dst).clear();
        reader(src, dst).reset();
      }
    }
  }

 private:
  FrameReader& reader(int src, int dst) {
    return readers_[static_cast<std::size_t>(src) *
                        static_cast<std::size_t>(np_) +
                    static_cast<std::size_t>(dst)];
  }

  /// Streams one frame into the (src, dst) ring, blocking on ring space.
  /// Returns false when the wait was abandoned (abort/stop/deadline).
  bool write_frame(int src, int dst, const FrameHeader& header,
                   std::span<const std::byte> payload, bool best_effort) {
    ByteRing ring = segment_.ring(src, dst);
    const auto notify = [this, dst] { segment_.ring_doorbell(dst); };
    std::function<bool()> keep_waiting;
    if (best_effort) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      keep_waiting = [this, deadline] {
        return !stop_.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline;
      };
    } else {
      keep_waiting = [this] {
        return !stop_.load(std::memory_order_acquire) && !world_.aborted();
      };
    }
    if (!ring.write(reinterpret_cast<const std::byte*>(&header),
                    sizeof(header), keep_waiting, notify)) {
      return false;
    }
    if (payload.empty()) return true;
    return ring.write(payload.data(), payload.size(), keep_waiting, notify);
  }

  void pump_main() {
    // One pump serves every local consumer: all ranks in-process (parked
    // on the "any" doorbell), just local_rank in a distributed world.
    std::vector<int> consumers;
    if (local_rank_ < 0) {
      for (int d = 0; d < np_; ++d) consumers.push_back(d);
    } else {
      consumers.push_back(local_rank_);
    }
    std::atomic<std::uint32_t>* doorbell =
        segment_.doorbell(local_rank_ < 0 ? np_ : local_rank_);
    try {
      for (;;) {
        const std::uint32_t snapshot =
            doorbell->load(std::memory_order_acquire);
        bool progressed = false;
        for (const int dst : consumers) {
          for (int src = 0; src < np_; ++src) {
            if (src == dst) continue;
            ByteRing ring = segment_.ring(src, dst);
            const std::size_t consumed = reader(src, dst).drain(
                [&ring](std::byte* buf, std::size_t max) {
                  return ring.read_some(buf, max);
                },
                [this, src, dst](const FrameHeader& h,
                                 std::vector<std::byte>&& payload) {
                  deliver_frame(world_, src, dst, h, std::move(payload));
                });
            progressed |= consumed > 0;
          }
        }
        if (stop_.load(std::memory_order_acquire)) return;
        if (!progressed) {
          futex_wait(doorbell, snapshot, std::chrono::milliseconds(100));
        }
      }
    } catch (const std::exception& e) {
      // A desynced/corrupt stream is unrecoverable for this job: abort the
      // world (first failure wins) and stop pumping; clear() restores the
      // rings for the next job.
      const int origin = local_rank_ < 0 ? 0 : local_rank_;
      world_.abort(origin, std::string("shm transport: ") + e.what());
    }
  }

  detail::World& world_;
  const int np_;
  const int local_rank_;
  ShmSegment segment_;
  std::vector<FrameReader> readers_;  // indexed src * np + dst
  std::mutex post_mu_;  // serializes same-process producers per segment
  std::thread pump_;
  std::atomic<bool> stop_{false};
};

}  // namespace

std::unique_ptr<Transport> make_shm_transport(const TransportSpec& spec,
                                              detail::World& world, int np) {
  return std::make_unique<ShmTransport>(spec, world, np);
}

}  // namespace parda::comm::transport

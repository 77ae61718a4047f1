#include "comm/telemetry_channel.hpp"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime.hpp"
#include "obs/span_tracer.hpp"
#include "util/parse.hpp"

namespace parda::comm::detail {

namespace {

/// Forwarding cadence; the smoke tests crank it down to catch mid-run
/// scrapes, production leaves the default 250 ms (~4 frames/s/process).
std::chrono::milliseconds interval_from_env() {
  const char* raw = std::getenv("PARDA_TELEMETRY_INTERVAL_MS");
  const std::optional<std::uint64_t> ms =
      raw != nullptr ? parse_u64(raw, std::numeric_limits<std::int32_t>::max())
                     : std::nullopt;
  if (!ms || *ms < 1) return std::chrono::milliseconds(250);
  return std::chrono::milliseconds(*ms);
}

bool read_i64(const Payload& p, std::int64_t& out) {
  const std::span<const std::byte> b = p.bytes();
  if (b.size() < sizeof(std::int64_t)) return false;
  std::memcpy(&out, b.data(), sizeof(std::int64_t));
  return true;
}

Message make_control(int src, int tag, Payload payload) {
  Message msg;
  msg.src = src;
  msg.tag = tag;
  msg.payload = std::move(payload);
  return msg;
}

}  // namespace

TelemetryChannel::TelemetryChannel(World& world, int rank)
    : world_(world),
      rank_(rank),
      np_(world.size()),
      active_(world.transport_spec().distributed() && world.size() > 1),
      interval_(interval_from_env()) {
  if (active_ && rank_ == 0) {
    final_seen_.assign(static_cast<std::size_t>(np_), false);
  }
}

TelemetryChannel::~TelemetryChannel() { cancel(); }

void TelemetryChannel::clock_handshake() {
  if (!active_) return;
  if (rank_ == 0) {
    handshake_hub();
  } else {
    handshake_remote();
  }
}

void TelemetryChannel::handshake_remote() {
  const OpDeadline deadline =
      std::chrono::steady_clock::now() + kHandshakeTimeout;
  obs::SpanTracer& t = obs::tracer();
  std::int64_t best_rtt = std::numeric_limits<std::int64_t>::max();
  try {
    for (int k = 0; k < kClockSamples; ++k) {
      const std::int64_t t0 = t.now_ns();
      world_.route(rank_, 0,
                   make_control(rank_, kTagClockPing,
                                Payload::own(std::vector<std::uint8_t>{0})));
      Message pong;
      const Mailbox::Wait wait =
          world_.mailbox(rank_).pop(0, kTagClockPong, pong, deadline);
      if (wait != Mailbox::Wait::kOk) break;
      const std::int64_t t1 = t.now_ns();
      std::int64_t m = 0;
      if (!read_i64(pong.payload, m)) break;
      const std::int64_t rtt = t1 - t0;
      if (rtt >= 0 && rtt < best_rtt) {
        best_rtt = rtt;
        // Midpoint estimator: assume the pong was stamped halfway through
        // the round trip. Cannot be off by more than rtt / 2.
        clock_.offset_ns = m - (t0 + rtt / 2);
        clock_.uncertainty_ns = rtt / 2;
      }
      ++clock_.samples;
    }
    clock_.valid = clock_.samples > 0;
    // Done marker, sent even after a failed exchange: rank 0 must not keep
    // waiting for this peer.
    world_.route(rank_, 0,
                 make_control(rank_, kTagClockPing,
                              Payload::own(std::vector<std::uint8_t>{1})));
  } catch (const RankAbortedError&) {
    clock_.valid = false;  // the run is going down; the body will see it
  }
  if (clock_.valid) {
    obs::log(obs::LogLevel::kDebug, "telemetry.clock")
        .field("rank", rank_)
        .field("offset_ns", clock_.offset_ns)
        .field("uncertainty_ns", clock_.uncertainty_ns)
        .field("samples", clock_.samples);
  }
}

void TelemetryChannel::handshake_hub() {
  const OpDeadline deadline =
      std::chrono::steady_clock::now() + kHandshakeTimeout;
  obs::SpanTracer& t = obs::tracer();
  int done = 0;
  try {
    while (done < np_ - 1) {
      Message msg;
      const Mailbox::Wait wait =
          world_.mailbox(0).pop(kAnySource, kTagClockPing, msg, deadline);
      if (wait != Mailbox::Wait::kOk) break;
      const std::span<const std::byte> b = msg.payload.bytes();
      if (!b.empty() && std::to_integer<int>(b[0]) == 1) {
        ++done;
        continue;
      }
      world_.route(
          0, msg.src,
          make_control(0, kTagClockPong,
                       Payload::own(std::vector<std::int64_t>{t.now_ns()})));
    }
  } catch (const RankAbortedError&) {
    // The run is aborting; the job body will observe it.
  }
}

void TelemetryChannel::start() {
  if (!active_) return;
  if (rank_ == 0) {
    worker_ = std::thread([this] { drainer_main(); });
  } else if (obs::enabled()) {
    worker_ = std::thread([this] { forwarder_main(); });
  }
}

void TelemetryChannel::forwarder_main() {
  std::unique_lock lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, interval_, [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    const bool ok = send_frame(/*final_frame=*/false);
    lock.lock();
    if (!ok) break;  // wire gone (abort); flush()/cancel() joins us
  }
}

void TelemetryChannel::drainer_main() {
  // The rank thread is the mailbox's single cv waiter, so the drainer may
  // only try_pop — never a blocking pop.
  for (;;) {
    Message msg;
    if (world_.mailbox(0).try_pop(kAnySource, kTagTelemetry, msg)) {
      ingest(msg);
      continue;
    }
    {
      std::unique_lock lock(mu_);
      if (stop_) break;
      cv_.wait_for(lock, std::chrono::milliseconds(2),
                   [this] { return stop_; });
      if (stop_) break;
    }
  }
  // Post-stop sweep: frames that landed between the last poll and the
  // stop flag still count (drain() waits on finals_ before stopping, but
  // an abort-path cancel() can leave stragglers).
  Message msg;
  while (world_.mailbox(0).try_pop(kAnySource, kTagTelemetry, msg)) {
    ingest(msg);
  }
}

bool TelemetryChannel::send_frame(bool final_frame) {
  std::uint64_t seq;
  {
    std::lock_guard lock(mu_);
    seq = ++seq_;
  }
  std::string frame = obs::make_telemetry_frame(
      rank_, seq, final_frame, clock_, obs::registry(), obs::tracer());
  try {
    world_.route(rank_, 0,
                 make_control(rank_, kTagTelemetry,
                              Payload::own(std::vector<char>(frame.begin(),
                                                             frame.end()))));
    return true;
  } catch (const RankAbortedError&) {
    return false;
  }
}

void TelemetryChannel::ingest(const Message& msg) {
  const std::span<const std::byte> b = msg.payload.bytes();
  const std::string_view frame(reinterpret_cast<const char*>(b.data()),
                               b.size());
  obs::TelemetryHub::Ingest result;
  try {
    result = obs::hub().ingest_frame(frame, msg.src);
  } catch (const std::exception& e) {
    obs::log(obs::LogLevel::kWarn, "telemetry.bad_frame")
        .field("src", msg.src)
        .field("error", e.what());
    return;
  }
  if (result.final_frame && result.process >= 0 && result.process < np_) {
    std::lock_guard lock(mu_);
    auto slot = final_seen_.begin() + result.process;
    if (!*slot) {
      *slot = true;
      ++finals_;
      cv_.notify_all();
    }
  }
}

void TelemetryChannel::flush() {
  if (!active_ || rank_ == 0) return;
  stop_worker();
  // The final frame always goes out — rank 0 counts finals to bound its
  // drain, and the last snapshot is the one worth keeping anyway.
  send_frame(/*final_frame=*/true);
}

void TelemetryChannel::drain() {
  if (!active_ || rank_ != 0) return;
  {
    std::unique_lock lock(mu_);
    const auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
    cv_.wait_until(lock, deadline,
                   [this] { return stop_ || finals_ >= np_ - 1; });
  }
  stop_worker();
}

void TelemetryChannel::cancel() { stop_worker(); }

void TelemetryChannel::stop_worker() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

}  // namespace parda::comm::detail

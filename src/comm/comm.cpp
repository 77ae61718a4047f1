#include "comm/comm.hpp"

#include <algorithm>
#include <exception>

#include "comm/telemetry_channel.hpp"
#include "comm/transport/transport.hpp"
#include "comm/worker_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/runtime.hpp"
#include "util/timer.hpp"

namespace parda::comm {

namespace detail {

CommCounters& comm_counters() {
  // Handles resolved once per process; the registry guarantees they stay
  // valid for its lifetime.
  static CommCounters counters{
      obs::registry().counter("comm.sends"),
      obs::registry().counter("comm.bytes_sent"),
      obs::registry().counter("comm.bytes_copied"),
      obs::registry().counter("comm.bytes_shared"),
      obs::registry().timer("comm.mailbox_wait"),
      obs::registry().timer("comm.barrier_wait"),
  };
  return counters;
}

Mailbox::Mailbox(int sources) {
  PARDA_CHECK(sources >= 1);
  buckets_.resize(static_cast<std::size_t>(sources));
}

void Mailbox::push(Message msg) {
  PARDA_CHECK(msg.src >= 0 &&
              msg.src < static_cast<int>(buckets_.size()));
  {
    std::lock_guard lock(mu_);
    auto& bucket = buckets_[static_cast<std::size_t>(msg.src)];
    bucket.push_back(Stamped{std::move(msg), next_seq_++});
  }
  // Single consumer (the owning rank), so this wakeup is targeted.
  cv_.notify_one();
}

bool Mailbox::take_locked(int src, int tag, Message& out) {
  if (src != kAnySource) {
    auto& bucket = buckets_[static_cast<std::size_t>(src)];
    for (auto it = bucket.begin(); it != bucket.end(); ++it) {
      if (tag_matches(it->msg, tag)) {
        out = std::move(it->msg);
        bucket.erase(it);
        return true;
      }
    }
    return false;
  }
  // Wildcard source: the eligible message with the smallest arrival stamp.
  std::deque<Stamped>* best_bucket = nullptr;
  std::deque<Stamped>::iterator best;
  for (auto& bucket : buckets_) {
    for (auto it = bucket.begin(); it != bucket.end(); ++it) {
      if (!tag_matches(it->msg, tag)) continue;
      if (best_bucket == nullptr || it->seq < best->seq) {
        best_bucket = &bucket;
        best = it;
      }
      break;  // within a bucket, the first tag match is the oldest
    }
  }
  if (best_bucket == nullptr) return false;
  out = std::move(best->msg);
  best_bucket->erase(best);
  return true;
}

Mailbox::Wait Mailbox::pop(int src, int tag, Message& out,
                           const OpDeadline& deadline) {
  std::unique_lock lock(mu_);
  bool matched = false;
  const auto ready = [&] {
    return poisoned_ || (matched = take_locked(src, tag, out));
  };
  if (deadline.has_value()) {
    if (!cv_.wait_until(lock, *deadline, ready)) return Wait::kTimeout;
  } else {
    cv_.wait(lock, ready);
  }
  // Poisoning beats draining: once the run is aborted, deterministic
  // teardown matters more than delivering whatever is still queued.
  if (poisoned_) return Wait::kPoisoned;
  PARDA_CHECK(matched);
  return Wait::kOk;
}

bool Mailbox::try_pop(int src, int tag, Message& out) {
  std::lock_guard lock(mu_);
  return take_locked(src, tag, out);
}

void Mailbox::poison() {
  {
    std::lock_guard lock(mu_);
    poisoned_ = true;
  }
  cv_.notify_all();
}

void Mailbox::reset() {
  std::lock_guard lock(mu_);
  for (auto& bucket : buckets_) bucket.clear();
  next_seq_ = 0;
  poisoned_ = false;
}

std::size_t Mailbox::depth() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& bucket : buckets_) n += bucket.size();
  return n;
}

std::uint64_t Mailbox::delivered() const {
  std::lock_guard lock(mu_);
  return next_seq_;
}

World::World(int np, const TransportSpec& spec) : np_(np), spec_(spec) {
  PARDA_CHECK(np >= 1);
  spec_.validate(np);
  rounds_ = np > 1 ? std::bit_width(static_cast<unsigned>(np - 1)) : 0;
  mailboxes_.reserve(static_cast<std::size_t>(np));
  boards_.reserve(static_cast<std::size_t>(np));
  for (int i = 0; i < np; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>(np));
    boards_.push_back(std::make_unique<RankBoard>());
  }
  // The transport is built after the mailboxes exist (its pumps deliver
  // into them) and started last, when the World is fully formed.
  transport_ = make_transport(spec_, *this, np);
  if (transport_ != nullptr) transport_->start();
}

World::~World() {
  if (transport_ != nullptr) transport_->stop();
}

void World::route(int src, int dst, Message&& msg) {
  // Self-sends stay local on every transport: a rank's message to itself
  // has no wire to cross, and pushing it through the serializer would only
  // manufacture a copy (and an SPSC self-deadlock on a full ring).
  if (transport_ == nullptr || src == dst) {
    mailbox(dst).push(std::move(msg));
    return;
  }
  transport_->post(src, dst, std::move(msg));
}

void World::barrier(int rank, const OpDeadline& deadline) {
  // Each round-k signal is a tagged (empty-payload) message on a reserved
  // internal tag: on the threads transport route() pushes it straight into
  // the partner's mailbox, elsewhere it crosses the same wire as data
  // traffic. Tags are per-round and sources are explicit, so overlapping
  // barrier epochs cannot confuse each other: a partner racing ahead just
  // queues its next round-k signal behind the current one (FIFO pop
  // consumes in order).
  for (int k = 0; k < rounds_; ++k) {
    const int step = 1 << k;
    const int to = (rank + step) % np_;
    const int from = (rank - step + np_) % np_;
    Message signal;
    signal.src = rank;
    signal.tag = kReservedTagBase + k;
    route(rank, to, std::move(signal));
    Message in;
    const Mailbox::Wait wait =
        mailbox(rank).pop(from, kReservedTagBase + k, in, deadline);
    if (wait == Mailbox::Wait::kPoisoned) throw_aborted();
    if (wait == Mailbox::Wait::kTimeout) {
      throw DeadlineExceededError(
          "barrier deadline exceeded at rank " + std::to_string(rank) +
          " (round " + std::to_string(k) + " of " + std::to_string(rounds_) +
          ")");
    }
  }
}

void World::abort(int origin, const std::string& cause) {
  abort_impl(origin, cause, /*broadcast=*/true);
}

void World::abort_remote(int origin, const std::string& cause) {
  abort_impl(origin, cause, /*broadcast=*/false);
}

void World::abort_impl(int origin, const std::string& cause, bool broadcast) {
  {
    std::lock_guard lock(abort_mu_);
    if (aborted_.load(std::memory_order_relaxed)) return;  // first wins
    abort_origin_ = origin;
    abort_cause_ = cause;
    aborted_.store(true, std::memory_order_release);
  }
  obs::log(obs::LogLevel::kWarn, "comm.abort")
      .field("origin", origin)
      .field("cause", cause);
  // The abort-origin log line above is in the tail ring by now, so the
  // flight recorder's log_tail names the origin even when the dump path
  // was configured lazily via the environment.
  obs::flightrec_note("abort.origin", std::to_string(origin));
  obs::flightrec_note("abort.cause", cause);
  obs::flightrec_note("transport", spec_.describe());
  obs::flightrec_note("world.generation", std::to_string(generation_));
  obs::flightrec_dump("comm.abort: " + cause);
  for (auto& mailbox : mailboxes_) mailbox->poison();
  // Local teardown first, then tell the remote ranks (no-op for
  // in-process transports). A frame that arrives back carrying this abort
  // hits the first-wins check above and is ignored.
  if (broadcast && transport_ != nullptr) {
    transport_->broadcast_abort(cause);
  }
}

void World::reset() {
  // Called between jobs by the pool's admitted submitter; every rank
  // thread of the previous job has unwound (the submitter observed the
  // job's completion with acquire ordering), so plain stores suffice —
  // the next job's workers see them through the job-publication release/
  // acquire pair.
  const bool was_aborted = aborted_.load(std::memory_order_relaxed);
  // Pumps must quiesce before the mailboxes drain (they deliver into
  // them), and the generation must bump before they restart so stale
  // frames of the previous job are dropped, not delivered.
  if (transport_ != nullptr) transport_->stop();
  ++generation_;
  for (auto& mailbox : mailboxes_) mailbox->reset();
  for (auto& board : boards_) {
    board->op.store(0, std::memory_order_relaxed);
    board->peer.store(kAnySource, std::memory_order_relaxed);
    board->tag.store(kAnyTag, std::memory_order_relaxed);
    board->epoch.store(0, std::memory_order_relaxed);
    board->done.store(false, std::memory_order_relaxed);
    board->messages_sent.store(0, std::memory_order_relaxed);
    board->bytes_sent.store(0, std::memory_order_relaxed);
  }
  {
    std::lock_guard lock(abort_mu_);
    abort_origin_ = 0;
    abort_cause_.clear();
    aborted_.store(false, std::memory_order_release);
  }
  if (transport_ != nullptr) {
    transport_->clear(was_aborted);
    transport_->start();
  }
}

void World::throw_aborted() const {
  int origin;
  std::string cause;
  {
    std::lock_guard lock(abort_mu_);
    origin = abort_origin_;
    cause = abort_cause_;
  }
  throw RankAbortedError(origin, cause);
}

std::string describe_exception(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

std::string World::stall_report() {
  std::string report =
      "comm stall detected: every rank is blocked with no progress\n";
  for (int r = 0; r < np_; ++r) {
    const RankBoard& b = *boards_[static_cast<std::size_t>(r)];
    const int op = b.op.load(std::memory_order_acquire);
    char line[256];
    if (b.done.load(std::memory_order_relaxed)) {
      std::snprintf(line, sizeof(line), "  rank %d: exited", r);
    } else if (op == 0) {
      std::snprintf(line, sizeof(line), "  rank %d: running", r);
    } else {
      std::snprintf(line, sizeof(line), "  rank %d: blocked in %s (peer=%d, tag=%d)",
                    r, fault_op_name(static_cast<FaultOp>(op - 1)),
                    b.peer.load(std::memory_order_relaxed),
                    b.tag.load(std::memory_order_relaxed));
    }
    const Mailbox& mb = *mailboxes_[static_cast<std::size_t>(r)];
    char tail[192];
    std::snprintf(tail, sizeof(tail),
                  " | mailbox: %zu queued, %llu delivered | sent %llu msgs, "
                  "%llu bytes\n",
                  mb.depth(),
                  static_cast<unsigned long long>(mb.delivered()),
                  static_cast<unsigned long long>(
                      b.messages_sent.load(std::memory_order_relaxed)),
                  static_cast<unsigned long long>(
                      b.bytes_sent.load(std::memory_order_relaxed)));
    report += line;
    report += tail;
  }
  return report;
}

}  // namespace detail

void Comm::apply_fault(const FaultPoint& pt) {
  obs::log(obs::LogLevel::kInfo, "fault.inject")
      .field("rank", rank_)
      .field("op", fault_op_name(pt.op))
      .field("action",
             pt.action == FaultPoint::Action::kDelay ? "delay" : "throw")
      .field("ms", pt.delay_ms);
  if (pt.action == FaultPoint::Action::kDelay) {
    std::this_thread::sleep_for(std::chrono::milliseconds(pt.delay_ms));
    return;
  }
  throw FaultInjectedError("injected fault at rank " + std::to_string(rank_) +
                           " (" + pt.describe() + ")");
}

namespace detail {

RunStats run_distributed(int np, const std::function<void(Comm&)>& fn,
                         const RunOptions& options) {
  const TransportSpec& spec = options.transport;
  spec.validate(np);
  PARDA_CHECK_MSG(options.watchdog_interval.count() == 0,
                  "the stall watchdog samples every rank's board in one "
                  "process; it cannot watch a distributed world (rank=%d)",
                  spec.local_rank);
  const int rank = spec.local_rank;
  // Crash dumps from this process are attributed to the rank it hosts.
  obs::flightrec_set_process(rank);
  World world(np, spec);
  RunStats stats;
  stats.ranks.resize(static_cast<std::size_t>(np));
  std::exception_ptr error;
  WallTimer wall;
  {
    obs::ScopedThreadRank obs_rank(rank);
    RankStats& rank_stats = stats.ranks[static_cast<std::size_t>(rank)];
    Comm comm(world, rank, rank_stats, options.fault_plan,
              options.op_timeout);
    TelemetryChannel telemetry(world, rank);
    ThreadCpuTimer cpu;
    try {
      telemetry.clock_handshake();
      telemetry.start();
      fn(comm);
      // Remote ranks flush their final telemetry frame BEFORE the
      // completion barrier (per-pair FIFO keeps it ahead of teardown)...
      telemetry.flush();
      // Implicit completion barrier: no process tears its transport down
      // while a sibling may still need the wire. A peer that aborted
      // instead of arriving poisons this wait, which is the error path
      // below.
      world.barrier(rank);
      // ... and rank 0 collects the stragglers after it, bounded.
      telemetry.drain();
    } catch (...) {
      error = std::current_exception();
      telemetry.cancel();
      world.abort(rank, describe_exception(error));
    }
    world.board(rank).done.store(true, std::memory_order_release);
    rank_stats.busy_seconds = cpu.seconds();
  }
  stats.wall_seconds = wall.seconds();
  if (error) std::rethrow_exception(error);
  return stats;
}

}  // namespace detail

RunStats run(int np, const std::function<void(Comm&)>& fn,
             const RunOptions& options) {
  if (options.transport.distributed()) {
    // One rank per process: fn runs inline on the calling thread; the
    // worker pool has nothing to schedule.
    return detail::run_distributed(np, fn, options);
  }
  // Transient runtime: spawn, run one job, join. Long-lived callers hold
  // a WorkerPool (or a core PardaRuntime) instead.
  WorkerPool pool(np);
  return pool.run_job(np, fn, options);
}

double RunStats::max_busy() const noexcept {
  double m = 0.0;
  for (const RankStats& r : ranks) m = std::max(m, r.busy_seconds);
  return m;
}

double RunStats::total_busy() const noexcept {
  double s = 0.0;
  for (const RankStats& r : ranks) s += r.busy_seconds;
  return s;
}

std::uint64_t RunStats::total_bytes() const noexcept {
  std::uint64_t s = 0;
  for (const RankStats& r : ranks) s += r.bytes_sent;
  return s;
}

std::uint64_t RunStats::total_messages() const noexcept {
  std::uint64_t s = 0;
  for (const RankStats& r : ranks) s += r.messages_sent;
  return s;
}

std::uint64_t RunStats::total_bytes_copied() const noexcept {
  std::uint64_t s = 0;
  for (const RankStats& r : ranks) s += r.bytes_copied;
  return s;
}

std::uint64_t RunStats::total_bytes_shared() const noexcept {
  std::uint64_t s = 0;
  for (const RankStats& r : ranks) s += r.bytes_shared;
  return s;
}

}  // namespace parda::comm

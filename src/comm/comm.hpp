// A from-scratch message-passing runtime with MPI semantics and a
// pluggable transport under it.
//
// The original Parda runs on MVAPICH over Infiniband; this repository
// substitutes a runtime with the same programming model — ranks, two-sided
// tagged send/recv, barrier, broadcast/scatter collectives — so the
// algorithm code reads like the paper's pseudocode (Send(x, p-1),
// S <- Recv(p+1), reduce_sum(hist)) while running portably on a laptop.
// The surface is exactly what the Parda rank bodies send: move-in send,
// recv / recv_view, broadcast and scatterv_view (the streaming phase
// intake), and barrier (the distributed completion barrier).
// reduce_sum(hist) is reduce_results (core/parda.hpp), a binomial tree of
// point-to-point sends that carries the rank profiles with the histogram.
//
// The data plane is selected by RunOptions::transport (comm/transport/,
// DESIGN.md "Transports"):
//  - threads (default): ranks are threads of one process and messages move
//    as refcounted payload handles — the zero-copy paths below;
//  - shm: messages serialize through SPSC byte rings in a shared-memory
//    segment, attachable by separate processes;
//  - tcp: messages serialize through a socket mesh, one connection per
//    rank pair, across processes or hosts.
// Matching, ordering, deadlines, abort propagation, the barrier, and the
// watchdog are transport-invariant: every rank's blocking wait pops its
// local Mailbox regardless of the wire, so the failure model and the obs
// layer behave identically on all three.
//
// Data movement is zero-copy wherever the transport permits (see
// DESIGN.md section "Data movement in the comm runtime"):
//  - send(dest, tag, std::vector<T>&&) moves the buffer into the message;
//    the matching recv<T> moves it back out, so a point-to-point transfer
//    of an owned vector costs zero byte copies. Sends are move-only: a
//    caller that keeps its data sends an explicit copy.
//  - Collectives publish ONE refcounted immutable block (a shared buffer)
//    and transport offset/length views of it: scatterv_view hands every
//    rank a View<T> aliasing the root's block, and the binomial broadcast
//    tree forwards payload handles, never bytes.
//  - recv_view<T> reinterprets any payload in place when size and alignment
//    permit, falling back to a single counted copy otherwise.
// RankStats separates bytes_copied (actually memcpy'd) from bytes_shared
// (transferred by handing over ownership or bumping a refcount), so benches
// and tests can prove how many copies a communication pattern performs.
//
// Failure model (see DESIGN.md section "Failure model" and comm/fault.hpp):
// when any rank's body throws, the World poisons every mailbox; blocked
// ranks wake and throw RankAbortedError naming the originating rank and
// cause, so run() unwinds cleanly on all ranks instead of deadlocking.
// recv/barrier accept optional per-op deadlines (DeadlineExceededError), a
// stall watchdog converts an all-ranks-blocked cycle into a per-rank
// diagnostic dump, and a seeded FaultPlan injects deterministic failures
// for the fault-injection test suite.
//
// Per-rank CPU-time accounting is built in: every rank's thread measures
// its own CLOCK_THREAD_CPUTIME_ID, so blocked time (waiting in recv or
// barrier) is not charged. On a single-core host this is what makes the
// paper's scaling figures reproducible: simulated parallel time is the
// maximum per-rank busy time, which the bench harnesses report alongside
// wall clock.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "comm/transport/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "util/check.hpp"

namespace parda::comm {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

class Transport;

namespace detail {
/// Tags below kReservedTagCeiling are the runtime's own (the barrier's
/// round signals, and the telemetry control plane).
/// They are unreachable from user code in practice and excluded from
/// kAnyTag wildcard matching, so internal traffic can share the mailboxes
/// without ever surfacing in a user recv.
inline constexpr int kReservedTagBase = std::numeric_limits<int>::min();
inline constexpr int kReservedTagCeiling = kReservedTagBase + 64;
/// Telemetry control plane (comm/telemetry_channel.hpp): the clock
/// ping/pong handshake at World setup and the metric/span frames each
/// remote process forwards to rank 0. Barrier rounds use base+k for
/// k < ceil(log2(np)) < 32, so base+32.. is safely clear of them.
inline constexpr int kTagClockPing = kReservedTagBase + 32;
inline constexpr int kTagClockPong = kReservedTagBase + 33;
inline constexpr int kTagTelemetry = kReservedTagBase + 34;
}  // namespace detail

/// Absolute wait limit for one blocking operation; nullopt = wait forever.
using OpDeadline = std::optional<std::chrono::steady_clock::time_point>;
/// Relative per-op timeout as accepted by recv/barrier.
using OpTimeout = std::optional<std::chrono::milliseconds>;

template <typename T>
concept Trivial = std::is_trivially_copyable_v<T>;

/// A type-erased immutable payload. Two provenances:
///  - own():  a moved-in typed vector — zero-copy on send, and zero-copy on
///            recv when the receiver asks for the same element type (the
///            storage is moved back out);
///  - view(): an offset/length slice of a refcounted shared block — the
///            currency of the zero-copy collectives. The block is immutable
///            once published, so any number of ranks may hold views
///            concurrently; the storage dies with its last holder.
class Payload {
 public:
  Payload() = default;

  template <Trivial T>
  static Payload own(std::vector<T>&& v) {
    Payload p;
    auto holder = std::make_shared<std::vector<T>>(std::move(v));
    p.data_ = reinterpret_cast<const std::byte*>(holder->data());
    p.size_ = holder->size() * sizeof(T);
    p.type_ = &typeid(std::vector<T>);
    p.keepalive_ = std::move(holder);
    return p;
  }

  /// A view of `size` bytes at `data`, kept alive by `keepalive`. The
  /// storage must never be mutated after publication.
  static Payload view(std::shared_ptr<void> keepalive, const std::byte* data,
                      std::size_t size) {
    Payload p;
    p.keepalive_ = std::move(keepalive);
    p.data_ = data;
    p.size_ = size;
    return p;
  }

  std::span<const std::byte> bytes() const noexcept { return {data_, size_}; }
  std::size_t size_bytes() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Moves the storage out as vector<T> without copying. Succeeds only if
  /// the payload was created by own(std::vector<T>&&) and nothing else
  /// (another View, an in-flight relay) still references the storage.
  template <Trivial T>
  bool take(std::vector<T>& out) {
    if (type_ == nullptr || *type_ != typeid(std::vector<T>)) return false;
    if (keepalive_.use_count() != 1) return false;
    out = std::move(*static_cast<std::vector<T>*>(keepalive_.get()));
    *this = Payload();
    return true;
  }

  /// Whether bytes() can be reinterpreted as T elements in place.
  template <Trivial T>
  bool aligned_for() const noexcept {
    return size_ % sizeof(T) == 0 &&
           reinterpret_cast<std::uintptr_t>(data_) % alignof(T) == 0;
  }

  std::shared_ptr<void> share() const noexcept { return keepalive_; }

 private:
  std::shared_ptr<void> keepalive_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  const std::type_info* type_ = nullptr;  // set for own()-provenance storage
};

/// A refcount-backed immutable view of a T array, handed out by the
/// zero-copy receive and collective paths. Cheap to copy; the underlying
/// block stays alive while any View (or in-flight message) references it.
template <Trivial T>
class View {
 public:
  View() = default;
  View(std::shared_ptr<void> keepalive, std::span<const T> span)
      : keepalive_(std::move(keepalive)), span_(span) {}

  const T* data() const noexcept { return span_.data(); }
  std::size_t size() const noexcept { return span_.size(); }
  bool empty() const noexcept { return span_.empty(); }
  const T& operator[](std::size_t i) const noexcept { return span_[i]; }
  const T* begin() const noexcept { return span_.data(); }
  const T* end() const noexcept { return span_.data() + span_.size(); }
  std::span<const T> span() const noexcept { return span_; }

 private:
  std::shared_ptr<void> keepalive_;
  std::span<const T> span_;
};

/// Raw message envelope: the sending rank and the tag recv matches on.
struct Message {
  int src = 0;
  int tag = 0;
  Payload payload;
};

/// Per-rank statistics collected by the runtime.
struct RankStats {
  double busy_seconds = 0.0;  // thread CPU time inside the rank function
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;    // payload bytes transmitted, any mode
  std::uint64_t bytes_copied = 0;  // bytes physically memcpy'd (wire
                                   // crossings + recv-side copy-outs)
  std::uint64_t bytes_shared = 0;  // bytes handed over by moved ownership
                                   // or a refcount bump — never touched
};

/// Whole-run statistics returned by run().
struct RunStats {
  double wall_seconds = 0.0;
  std::vector<RankStats> ranks;

  /// Lower bound on parallel execution time with one core per rank: the
  /// busiest rank's CPU time.
  double max_busy() const noexcept;
  /// Total CPU work across ranks (what a 1-core schedule must execute).
  double total_busy() const noexcept;
  std::uint64_t total_bytes() const noexcept;
  std::uint64_t total_messages() const noexcept;
  std::uint64_t total_bytes_copied() const noexcept;
  std::uint64_t total_bytes_shared() const noexcept;
};

namespace detail {

/// Inbound queue for one rank. Multiple producers, single consumer.
/// Messages live in per-source buckets so pop(src, tag) scans only the
/// matching source's deque; an arrival sequence number preserves the
/// FIFO-by-arrival contract for wildcard receives. The owning rank is the
/// only waiter, so producers use a targeted notify_one.
class Mailbox {
 public:
  enum class Wait { kOk, kPoisoned, kTimeout };

  explicit Mailbox(int sources);

  void push(Message msg);
  /// Blocks until a message matching (src, tag) is available and removes
  /// it into `out`. kAnySource / kAnyTag act as wildcards. Matching among
  /// eligible messages is FIFO by arrival. Returns kPoisoned once the
  /// mailbox is poisoned (even if matching messages remain queued:
  /// teardown beats draining) and kTimeout when `deadline` passes first.
  Wait pop(int src, int tag, Message& out, const OpDeadline& deadline);
  bool try_pop(int src, int tag, Message& out);

  /// Abort propagation: wakes the blocked owner; all subsequent pops
  /// return kPoisoned.
  void poison();

  /// Reuse: drains every bucket and clears the poison flag. The deque
  /// buckets themselves (and their allocations) survive, so a pooled
  /// World's mailboxes warm up once. Caller must guarantee no rank is
  /// blocked in pop().
  void reset();

  /// Messages queued right now / delivered over the mailbox's lifetime
  /// (watchdog diagnostics).
  std::size_t depth() const;
  std::uint64_t delivered() const;

 private:
  struct Stamped {
    Message msg;
    std::uint64_t seq;  // arrival order across all sources
  };

  static bool tag_matches(const Message& m, int tag) noexcept {
    // Wildcards never match the runtime's reserved internal tags: barrier
    // signals share the mailboxes but must stay invisible to user-level
    // recv(kAnySource, kAnyTag).
    if (tag == kAnyTag) return m.tag >= kReservedTagCeiling;
    return m.tag == tag;
  }
  bool take_locked(int src, int tag, Message& out);

  mutable std::mutex mu_;
  std::condition_variable cv_;  // single waiter: the owning rank
  std::vector<std::deque<Stamped>> buckets_;  // indexed by source rank
  std::uint64_t next_seq_ = 0;
  bool poisoned_ = false;
};

class World {
 public:
  /// `spec` is validated against np; a distributed spec (spec.local_rank
  /// >= 0) builds a world where exactly one rank is hosted here and the
  /// rest are reached over the wire.
  World(int np, const TransportSpec& spec);
  ~World();

  int size() const noexcept { return np_; }
  Mailbox& mailbox(int rank) { return *mailboxes_[static_cast<std::size_t>(rank)]; }

  const TransportSpec& transport_spec() const noexcept { return spec_; }
  /// True when payload handles cross rank boundaries by refcount (the
  /// threads transport); serializing transports copy on the wire.
  bool zero_copy() const noexcept { return transport_ == nullptr; }

  /// Delivers one stamped message toward dst's mailbox: directly on the
  /// threads transport (and for self-sends on any transport — a rank's
  /// message to itself never touches the wire), through the transport's
  /// serializing path otherwise. May block on wire backpressure; throws
  /// RankAbortedError once the run is aborted mid-wait.
  void route(int src, int dst, Message&& msg);

  /// Dissemination barrier, one implementation on every transport:
  /// ceil(log2(np)) rounds, each an empty message on a reserved internal
  /// tag to rank + 2^k and a pop of the one from rank - 2^k, so the barrier
  /// waits in the same mailbox (and crosses the same wire) as data traffic.
  /// Throws RankAbortedError when the world is poisoned mid-wait and
  /// DeadlineExceededError when `deadline` passes first.
  void barrier(int rank, const OpDeadline& deadline = std::nullopt);

  /// First failure wins: records (origin, cause), then poisons every
  /// mailbox so all blocked ranks wake and throw RankAbortedError, and
  /// (distributed worlds) broadcasts an abort control frame so remote
  /// ranks do the same. Idempotent; later calls are ignored.
  void abort(int origin, const std::string& cause);
  /// Abort on behalf of a remote rank, recorded by a transport pump when
  /// an abort control frame arrives from it: poisons locally, never
  /// re-broadcasts (the origin's own broadcast already told everyone).
  void abort_remote(int origin, const std::string& cause);
  bool aborted() const noexcept {
    return aborted_.load(std::memory_order_acquire);
  }
  /// Throws RankAbortedError carrying the recorded origin and cause.
  [[noreturn]] void throw_aborted() const;

  /// Watchdog bookkeeping: what each rank is doing right now. Written by
  /// the rank's own thread, read by the watchdog — atomics only.
  struct RankBoard {
    std::atomic<int> op{0};  // 0 = running, else 1 + int(FaultOp)
    std::atomic<int> peer{kAnySource};
    std::atomic<int> tag{kAnyTag};
    std::atomic<std::uint64_t> epoch{0};  // bumped on every block entry
    std::atomic<bool> done{false};        // rank body returned/threw
    // Mirrors of the send-side RankStats that the watchdog may read while
    // the rank is still running (RankStats itself is unsynchronized).
    std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> bytes_sent{0};
  };
  RankBoard& board(int rank) {
    return *boards_[static_cast<std::size_t>(rank)];
  }

  /// Per-rank diagnostic dump for the stall watchdog: blocked op, peer,
  /// tag, queue depths, and bytes moved.
  std::string stall_report();

  /// Returns the World to its just-constructed state for the next job:
  /// mailboxes drained and unpoisoned, rank boards and abort state
  /// cleared — a generation bump, not a reallocation. The caller (the
  /// WorkerPool's admitted submitter) must guarantee every rank thread of
  /// the previous job has unwound.
  void reset();
  /// Jobs this World has been reset for. Serializing transports stamp it
  /// into every frame so leftovers of a previous pooled job are dropped on
  /// receipt, never delivered into the next job.
  std::uint64_t generation() const noexcept { return generation_; }

 private:
  void abort_impl(int origin, const std::string& cause, bool broadcast);

  int np_;
  int rounds_;
  std::uint64_t generation_ = 0;
  TransportSpec spec_;
  std::unique_ptr<Transport> transport_;  // null = threads (direct) path
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<RankBoard>> boards_;

  std::atomic<bool> aborted_{false};
  mutable std::mutex abort_mu_;
  int abort_origin_ = 0;
  std::string abort_cause_;
};

/// RAII registration of a blocking wait on the rank's board.
class BlockedScope {
 public:
  BlockedScope(World::RankBoard& board, FaultOp op, int peer, int tag)
      : board_(board) {
    board_.peer.store(peer, std::memory_order_relaxed);
    board_.tag.store(tag, std::memory_order_relaxed);
    board_.epoch.fetch_add(1, std::memory_order_relaxed);
    board_.op.store(1 + static_cast<int>(op), std::memory_order_release);
  }
  BlockedScope(const BlockedScope&) = delete;
  BlockedScope& operator=(const BlockedScope&) = delete;
  ~BlockedScope() { board_.op.store(0, std::memory_order_release); }

 private:
  World::RankBoard& board_;
};

/// Pre-resolved handles into the global metrics registry for the comm hot
/// paths. Resolved once (mutex-guarded name lookup) on first use; every
/// record after that is a lock-free shard update. The copy/shared split
/// mirrors RankStats, so the snapshot can be cross-checked against the
/// run's own accounting.
struct CommCounters {
  obs::Counter& sends;
  obs::Counter& bytes_sent;
  obs::Counter& bytes_copied;
  obs::Counter& bytes_shared;
  obs::TimerHistogram& mailbox_wait;
  obs::TimerHistogram& barrier_wait;
};
CommCounters& comm_counters();

/// One-line rendering of an exception for abort attribution.
std::string describe_exception(const std::exception_ptr& e);

}  // namespace detail

/// The per-rank communicator handle passed to the rank function.
class Comm {
 public:
  Comm(detail::World& world, int rank, RankStats& stats,
       const FaultPlan* fault_plan = nullptr,
       OpTimeout default_op_timeout = std::nullopt)
      : world_(world),
        rank_(rank),
        stats_(stats),
        board_(world.board(rank)),
        fault_plan_(fault_plan),
        default_op_timeout_(default_op_timeout) {}

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return world_.size(); }

  // --- Point-to-point contract (identical on every transport) -----------
  //
  // send(dest, tag, buffer) delivers a tagged buffer of trivially
  // copyable elements to rank dest. recv/recv_view at dest match on
  // (src, tag) — kAnySource / kAnyTag act as wildcards — FIFO by arrival
  // among eligible messages, with per-pair ordering guaranteed. Blocking
  // waits honor the per-op timeout (or the run-wide default), throwing
  // DeadlineExceededError on expiry; an abort of the run by any rank
  // throws RankAbortedError. None of that depends on the transport.
  //
  // Only the COST MODEL is transport-dependent, and RankStats records it
  // honestly either way:
  //  - send moves the buffer into the message: zero-copy end to end on the
  //    threads transport (bytes_shared), one counted serialization copy
  //    per wire crossing on shm/tcp (bytes_copied);
  //  - recv<T> moves a same-element-type owned payload back out
  //    (zero-copy) and otherwise reinterprets via one counted copy;
  //  - recv_view<T> aliases the payload storage in place when size and
  //    alignment permit, falling back to one counted copy. On serializing
  //    transports the aliased storage is the rank's own deserialized
  //    buffer, so the view is always private to the receiving rank.

  template <Trivial T>
  void send(int dest, int tag, std::vector<T>&& data) {
    Payload p = Payload::own(std::move(data));
    note_transfer(p.size_bytes());
    post(dest, tag, std::move(p));
  }

  template <Trivial T>
  std::vector<T> recv(int src, int tag, int* actual_src = nullptr,
                      int* actual_tag = nullptr,
                      OpTimeout timeout = std::nullopt) {
    Message msg = pop_checked(src, tag, timeout);
    if (actual_src != nullptr) *actual_src = msg.src;
    if (actual_tag != nullptr) *actual_tag = msg.tag;
    return materialize<T>(std::move(msg.payload));
  }

  template <Trivial T>
  View<T> recv_view(int src, int tag, int* actual_src = nullptr,
                    int* actual_tag = nullptr,
                    OpTimeout timeout = std::nullopt) {
    Message msg = pop_checked(src, tag, timeout);
    if (actual_src != nullptr) *actual_src = msg.src;
    if (actual_tag != nullptr) *actual_tag = msg.tag;
    return as_view<T>(std::move(msg.payload));
  }

  /// Barrier with the same optional deadline semantics as recv.
  void barrier(OpTimeout timeout = std::nullopt) {
    maybe_inject(FaultOp::kBarrier);
    detail::BlockedScope scope(board_, FaultOp::kBarrier, kAnySource,
                               kAnyTag);
    if (obs::enabled()) {
      // One clock source feeds both the timer histogram and the wait span
      // the attribution report folds into per-rank blocked time.
      obs::SpanTracer& t = obs::tracer();
      const std::int64_t t0 = t.now_ns();
      world_.barrier(rank_, deadline_from(timeout));
      const std::int64_t t1 = t.now_ns();
      detail::comm_counters().barrier_wait.record_ns(
          static_cast<std::uint64_t>(t1 - t0));
      t.record(t0, t1, "barrier-wait", obs::thread_phase());
    } else {
      world_.barrier(rank_, deadline_from(timeout));
    }
  }

  /// Broadcast root's buffer to all ranks; returns the buffer everywhere.
  /// Transport is a log-depth binomial tree forwarding ONE shared payload
  /// (refcount bumps, no byte copies); each rank pays at most one copy-out
  /// to materialize its owned result.
  template <Trivial T>
  std::vector<T> broadcast(std::vector<T> data, int root, int tag) {
    if (size() == 1) return data;
    Payload p;
    if (rank_ == root) p = Payload::own(std::move(data));
    p = bcast_payload(std::move(p), root, tag);
    return materialize<T>(std::move(p));
  }

  /// The zero-copy scatter: root publishes ONE shared block and each rank
  /// receives an (offset, count) View of it — on the threads transport the
  /// block is copied zero times regardless of np. slices[r] = (first
  /// element, element count) of rank r's slice; only root reads
  /// block/slices. Slices may overlap. On serializing transports each
  /// rank's slice crosses the wire as one counted copy and the returned
  /// View aliases the rank's private buffer — same contract, copy cost.
  template <Trivial T>
  View<T> scatterv_view(
      std::vector<T>&& block,
      std::span<const std::pair<std::uint64_t, std::uint64_t>> slices,
      int root, int tag) {
    if (rank_ != root) return recv_view<T>(root, tag);
    PARDA_CHECK_MSG(static_cast<int>(slices.size()) == size(),
                    "scatterv_view at root got %zu slices for %d ranks",
                    slices.size(), size());
    auto holder = std::make_shared<std::vector<T>>(std::move(block));
    const T* base = holder->data();
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      const auto [off, cnt] = slices[static_cast<std::size_t>(r)];
      PARDA_CHECK_MSG(off + cnt <= holder->size(),
                      "slice [%llu,+%llu) for rank %d exceeds block of %zu",
                      static_cast<unsigned long long>(off),
                      static_cast<unsigned long long>(cnt), r,
                      holder->size());
      Payload p = Payload::view(
          holder, reinterpret_cast<const std::byte*>(base + off),
          static_cast<std::size_t>(cnt) * sizeof(T));
      note_transfer(p.size_bytes());
      post(r, tag, std::move(p));
    }
    const auto [off, cnt] = slices[static_cast<std::size_t>(rank_)];
    return View<T>(std::move(holder),
                   std::span<const T>(base + off, static_cast<std::size_t>(cnt)));
  }

 private:
  /// Byte-movement accounting: every copied/shared byte updates this
  /// rank's RankStats and, when observability is on, the global per-rank
  /// counters — one choke point per movement class instead of scattered
  /// `stats_.x +=` sites.
  void note_copied(std::size_t n) noexcept {
    stats_.bytes_copied += n;
    if (obs::enabled()) detail::comm_counters().bytes_copied.add(n);
  }
  void note_shared(std::size_t n) noexcept {
    stats_.bytes_shared += n;
    if (obs::enabled()) detail::comm_counters().bytes_shared.add(n);
  }
  /// Accounting for handing over a payload handle (moved buffer, refcount
  /// bump). On the zero-copy transport that is a genuine share; on
  /// serializing transports the bytes will be counted as the wire copy in
  /// post() instead, so nothing is recorded here.
  void note_transfer(std::size_t n) noexcept {
    if (world_.zero_copy()) note_shared(n);
  }

  /// Converts a per-call timeout (or the run-wide default) into an
  /// absolute deadline for one blocking wait.
  OpDeadline deadline_from(const OpTimeout& timeout) const {
    const OpTimeout& t = timeout.has_value() ? timeout : default_op_timeout_;
    if (!t.has_value()) return std::nullopt;
    return std::chrono::steady_clock::now() + *t;
  }

  /// Fault-injection hook: consults the plan for this rank's n-th op of
  /// this kind. Throws FaultInjectedError or sleeps per the matched point.
  void maybe_inject(FaultOp op) {
    if (fault_plan_ == nullptr) return;
    const std::uint64_t n = op_counts_[static_cast<std::size_t>(op)]++;
    const FaultPoint* pt = fault_plan_->match(rank_, op, n);
    if (pt != nullptr) apply_fault(*pt);
  }
  void apply_fault(const FaultPoint& pt);

  /// The one blocking pop: registers the wait on the rank board for the
  /// watchdog, applies the deadline, and converts poisoning/timeout into
  /// typed exceptions. All receive paths (point-to-point and collective
  /// hops) come through here.
  Message pop_checked(int src, int tag, OpTimeout timeout = std::nullopt) {
    maybe_inject(FaultOp::kRecv);
    detail::BlockedScope scope(board_, FaultOp::kRecv, src, tag);
    Message out;
    detail::Mailbox::Wait wait;
    if (obs::enabled()) {
      obs::SpanTracer& t = obs::tracer();
      const std::int64_t t0 = t.now_ns();
      wait = world_.mailbox(rank_).pop(src, tag, out, deadline_from(timeout));
      const std::int64_t t1 = t.now_ns();
      detail::comm_counters().mailbox_wait.record_ns(
          static_cast<std::uint64_t>(t1 - t0));
      t.record(t0, t1, "recv-wait", obs::thread_phase());
    } else {
      wait = world_.mailbox(rank_).pop(src, tag, out, deadline_from(timeout));
    }
    switch (wait) {
      case detail::Mailbox::Wait::kOk:
        return out;
      case detail::Mailbox::Wait::kPoisoned:
        world_.throw_aborted();
      case detail::Mailbox::Wait::kTimeout:
      default:
        throw DeadlineExceededError(
            "recv deadline exceeded at rank " + std::to_string(rank_) +
            " (src=" + std::to_string(src) + ", tag=" + std::to_string(tag) +
            ")");
    }
  }

  /// Stamps the envelope and routes it toward dest's mailbox through the
  /// world's transport. On serializing transports a cross-rank post is the
  /// one place the wire copy is counted.
  void post(int dest, int tag, Payload p) {
    PARDA_CHECK_MSG(dest >= 0 && dest < size(),
                    "send from rank %d to invalid rank %d (np=%d)", rank_,
                    dest, size());
    maybe_inject(FaultOp::kSend);
    stats_.messages_sent += 1;
    stats_.bytes_sent += p.size_bytes();
    board_.messages_sent.fetch_add(1, std::memory_order_relaxed);
    board_.bytes_sent.fetch_add(p.size_bytes(), std::memory_order_relaxed);
    if (obs::enabled()) {
      auto& c = detail::comm_counters();
      c.sends.add(1);
      c.bytes_sent.add(p.size_bytes());
    }
    if (!world_.zero_copy() && dest != rank_) note_copied(p.size_bytes());
    Message msg;
    msg.src = rank_;
    msg.tag = tag;
    msg.payload = std::move(p);
    world_.route(rank_, dest, std::move(msg));
  }

  /// Relays an in-flight payload handle (collective hop): a refcount bump
  /// on the zero-copy transport, a wire copy otherwise.
  void forward(int dest, int tag, Payload p) {
    note_transfer(p.size_bytes());
    post(dest, tag, std::move(p));
  }

  template <Trivial T>
  std::vector<T> materialize(Payload p) {
    std::vector<T> out;
    if (p.take(out)) return out;
    const std::span<const std::byte> b = p.bytes();
    PARDA_CHECK_MSG(b.size() % sizeof(T) == 0,
                    "payload of %zu bytes is not a whole number of %zu-byte "
                    "elements",
                    b.size(), sizeof(T));
    out.resize(b.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), b.data(), b.size());
    note_copied(b.size());
    return out;
  }

  template <Trivial T>
  View<T> as_view(Payload p) {
    if (p.template aligned_for<T>()) {
      const std::span<const std::byte> b = p.bytes();
      return View<T>(p.share(),
                     std::span<const T>(reinterpret_cast<const T*>(b.data()),
                                        b.size() / sizeof(T)));
    }
    // Misaligned or ragged payload: one counted copy, then self-owned view.
    std::vector<T> fixed = materialize<T>(std::move(p));
    auto holder = std::make_shared<std::vector<T>>(std::move(fixed));
    const std::span<const T> s(holder->data(), holder->size());
    return View<T>(std::move(holder), s);
  }

  /// Binomial-tree broadcast of an opaque payload in virtual rank space
  /// (root at virtual 0). The payload travels by refcount — log-depth and
  /// zero byte copies. Returns the payload at every rank.
  Payload bcast_payload(Payload mine, int root, int tag) {
    const int np = size();
    if (np == 1) return mine;
    const int me = (rank_ - root + np) % np;
    Payload p = std::move(mine);
    if (me != 0) {
      const int parent = me - (me & -me);  // clear lowest set bit
      Message msg = pop_checked((parent + root) % np, tag);
      p = std::move(msg.payload);
    }
    unsigned start;
    if (me == 0) {
      start = std::bit_floor(static_cast<unsigned>(np - 1));
    } else {
      start = static_cast<unsigned>(me & -me) >> 1;
    }
    for (unsigned step = start; step >= 1; step >>= 1) {
      const int child = me + static_cast<int>(step);
      if (child < np) forward((child + root) % np, tag, p);
    }
    return p;
  }

  detail::World& world_;
  int rank_;
  RankStats& stats_;
  detail::World::RankBoard& board_;
  const FaultPlan* fault_plan_;
  OpTimeout default_op_timeout_;
  std::uint64_t op_counts_[3] = {0, 0, 0};  // send, recv, barrier
};

/// Runtime knobs for run(); the default reproduces the historical
/// behavior: threads transport, wait-forever, no injection, no watchdog.
struct RunOptions {
  /// Data plane selection (comm/transport/spec.hpp). The default threads
  /// spec is the historical zero-copy in-process wire; shm/tcp serialize
  /// messages through a shared-memory segment or a socket mesh, and a
  /// distributed spec (local_rank >= 0) hosts exactly one rank in this
  /// process — see run() below.
  TransportSpec transport;
  /// Default per-op deadline applied to every blocking recv/barrier (each
  /// call may override). Expiry throws DeadlineExceededError in that rank,
  /// which aborts the run for everyone.
  OpTimeout op_timeout;
  /// Stall watchdog sampling interval; zero disables. When every rank sits
  /// blocked with no progress across two consecutive samples, the watchdog
  /// dumps a per-rank diagnostic to stderr and aborts the run. The
  /// watchdog needs every rank's board in this process, so it is
  /// incompatible with a distributed transport spec (run() rejects the
  /// combination).
  std::chrono::milliseconds watchdog_interval{0};
  /// Deterministic fault injection; not owned, may be null. Must outlive
  /// the run() call.
  const FaultPlan* fault_plan = nullptr;
};

namespace detail {
/// One-process-per-rank execution: runs options.transport.local_rank's
/// body inline on the calling thread against a distributed World. Called
/// by run()/WorkerPool::run_job when the spec is distributed; the returned
/// RunStats carries real numbers only for the local rank.
RunStats run_distributed(int np, const std::function<void(Comm&)>& fn,
                         const RunOptions& options);
}  // namespace detail

/// Runs fn(comm) on np ranks and returns run statistics. If any rank
/// throws, the world is poisoned: every other rank blocked in recv/barrier
/// wakes with RankAbortedError attributing the failure to the originating
/// rank, and run() rethrows the origin's exception after all ranks have
/// unwound. The contract holds on every transport; with a distributed spec
/// (options.transport.local_rank >= 0) this process hosts exactly ONE
/// rank — fn runs inline on the calling thread, the other ranks are
/// sibling processes reached over the wire, and aborts cross as control
/// frames.
///
/// Each in-process call builds a transient WorkerPool (see
/// comm/worker_pool.hpp), so one-shot call sites keep spawn/join
/// semantics. Code that runs many jobs should hold a WorkerPool (or a core
/// PardaRuntime) and reuse it.
RunStats run(int np, const std::function<void(Comm&)>& fn,
             const RunOptions& options = {});

}  // namespace parda::comm

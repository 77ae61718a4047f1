// Failure model for the comm runtime (see DESIGN.md "Failure model").
//
// The real Parda runs under MVAPICH, where a failed rank takes the whole
// job down; this runtime reproduces that contract cooperatively. When any
// rank's body throws, the World poisons every mailbox and barrier peer, so
// ranks blocked in recv()/barrier() wake and throw RankAbortedError carrying
// the originating rank and cause — the run unwinds cleanly on all ranks
// instead of deadlocking. Deadlines turn an unexpected wait into a
// DeadlineExceededError; the stall watchdog turns an all-ranks-blocked cycle
// into a per-rank diagnostic dump.
//
// FaultPlan is the deterministic fault-injection companion: a parsed spec
// (--fault-plan or $PARDA_FAULT_PLAN, through config::resolve_flag) naming
// exact points — "throw in rank 1 at recv #3", "delay rank 0's send #2 by
// 50ms", "fail the trace producer after 10000 words" — used by the
// fault-injection test suite to prove that every injected fault produces
// a clean, attributed error on all ranks.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace parda::comm {

/// Origin value used when the stall watchdog (not a rank) aborts the run.
inline constexpr int kWatchdogOrigin = -1;

/// Thrown by blocked comm operations when another rank aborted the run.
/// origin_rank() names the rank whose failure started the teardown
/// (kWatchdogOrigin when the stall watchdog fired).
class RankAbortedError : public std::runtime_error {
 public:
  RankAbortedError(int origin, const std::string& cause)
      : std::runtime_error(origin == kWatchdogOrigin
                               ? "run aborted by watchdog: " + cause
                               : "run aborted by rank " +
                                     std::to_string(origin) + ": " + cause),
        origin_(origin) {}

  int origin_rank() const noexcept { return origin_; }

 private:
  int origin_;
};

/// Thrown when a recv/barrier deadline expires before the wait completes.
class DeadlineExceededError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown at a FaultPlan-selected injection point.
class FaultInjectedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Operations a FaultPoint can target.
enum class FaultOp : int {
  kSend = 0,
  kRecv = 1,
  kBarrier = 2,
  kProducer = 3,  // the trace producer feeding a TracePipe
};

const char* fault_op_name(FaultOp op) noexcept;

/// One injection point. For comm ops: fire on `rank`'s n-th occurrence of
/// `op` (per-rank, 0-based, counting collective-internal sends/recvs too).
/// For kProducer: fail the trace producer after `after_words` words.
struct FaultPoint {
  int rank = 0;
  FaultOp op = FaultOp::kSend;
  std::uint64_t n = 0;
  enum class Action { kThrow, kDelay } action = Action::kThrow;
  std::uint64_t delay_ms = 0;         // kDelay only
  std::uint64_t after_words = 0;      // kProducer only

  std::string describe() const;
};

/// A deterministic set of injection points.
///
/// Grammar (clauses separated by ';', keys by ','):
///   plan     := clause (';' clause)*
///   clause   := key '=' value (',' key '=' value)*
///   keys     : rank   (at most INT_MAX; required for send/recv/barrier)
///              op     (send | recv | barrier | producer)
///              n      (0-based op index on that rank; default 0)
///              action (throw | delay; default throw)
///              ms     (delay milliseconds; required for action=delay)
///              after_words (producer: fail after this many words)
///   numbers  : util/parse.hpp's grammar, decimal or 0x hex, unsigned
/// Examples:
///   "rank=1,op=recv,n=3"
///   "rank=0,op=send,n=2,action=delay,ms=50;rank=2,op=barrier"
///   "op=producer,after_words=10000"
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses the grammar above; throws parda::CheckError on malformed specs.
  /// An empty spec is the empty plan.
  static FaultPlan parse(const std::string& spec);

  /// A deterministic pseudo-random single-point plan for seed-matrix
  /// testing: the seed picks a rank in [0, np), an op among
  /// send/recv/barrier, and an op index in [0, max_n). Same seed, same plan.
  static FaultPlan random(std::uint64_t seed, int np, std::uint64_t max_n = 4);

  bool empty() const noexcept { return points_.empty(); }
  const std::vector<FaultPoint>& points() const noexcept { return points_; }

  /// The first point matching rank's n-th op of this kind, else nullptr.
  const FaultPoint* match(int rank, FaultOp op, std::uint64_t n) const noexcept;

  /// Word count after which the trace producer must fail, if any
  /// kProducer point is present.
  std::optional<std::uint64_t> producer_fail_after() const noexcept;

  /// Round-trips through the grammar (parse(describe()) == *this).
  std::string describe() const;

 private:
  std::vector<FaultPoint> points_;
};

}  // namespace parda::comm

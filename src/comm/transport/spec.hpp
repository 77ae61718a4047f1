// TransportSpec: the runtime-configuration half of the transport layer.
//
// A TransportSpec names which wire a World's messages travel on and the
// transport's endpoint/segment parameters. It is a plain value: parseable
// from one CLI/env spelling (`kind[:key=val,...]`), printable back via
// describe(), and composed into comm::RunOptions so every entry point that
// already takes RunOptions (run(), WorkerPool::run_job, PardaOptions)
// selects its transport the same way.
//
// Kinds:
//   threads  in-process mailbox transport (the default). Payload handles
//            move by refcount — zero-copy sends and shared-block views.
//   shm      shared-memory transport: per-(src,dst) byte rings with futex
//            doorbells in one mapped segment. With `segment=NAME` the
//            segment is shm_open'd by name so ranks may live in separate
//            processes (one process per rank, see local_rank).
//   tcp      socket transport: one connection per peer pair, length-
//            prefixed frames, bounded send queues flushed by non-blocking
//            writes. With `peers=H:P,...` ranks span hosts.
//
// In-process vs distributed: by default every rank of the World lives in
// the calling process (rank bodies on pool worker threads) whatever the
// transport — that is how the cross-transport equality suite runs one
// binary over all three wires. Setting local_rank >= 0 declares that THIS
// process hosts exactly that one rank of an np-rank World whose peers run
// elsewhere (launched by scripts/run_distributed.sh or by hand).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace parda::comm {

/// local_rank value meaning "all np ranks live in this process".
inline constexpr int kAllRanksLocal = -1;

/// Bounds on ring_bytes, checked by parse() and ShmSegment::create. The cap
/// keeps the 64-byte alignment and np * np rings from wrapping size_t.
inline constexpr std::size_t kMinRingBytes = 256;
inline constexpr std::size_t kMaxRingBytes = std::size_t{1} << 30;

enum class TransportKind : int {
  kThreads = 0,
  kShm = 1,
  kTcp = 2,
};

const char* transport_kind_name(TransportKind kind) noexcept;

struct TransportSpec {
  TransportKind kind = TransportKind::kThreads;

  /// Which rank this process hosts; kAllRanksLocal = every rank (threads
  /// in one process). Distributed mode requires a non-threads transport.
  int local_rank = kAllRanksLocal;

  // --- shm parameters -------------------------------------------------------
  /// Per-(src,dst) ring capacity in bytes. Frames larger than the ring
  /// stream through it in pieces, so this bounds memory, not message size.
  std::size_t ring_bytes = 1u << 18;
  /// Segment name for cross-process attachment ("/parda-..."); empty = an
  /// anonymous process-private mapping (in-process shm).
  std::string segment;

  // --- tcp parameters -------------------------------------------------------
  /// host:port endpoint per rank (size must equal np in distributed mode).
  /// Empty = in-process loopback mesh on ephemeral ports.
  std::vector<std::string> peers;
  /// Per-peer send-queue cap in bytes; a sender whose queue is full blocks
  /// (backpressure) until the IO thread drains it.
  std::size_t sendq_bytes = 8u << 20;

  bool distributed() const noexcept { return local_rank != kAllRanksLocal; }
  bool zero_copy() const noexcept { return kind == TransportKind::kThreads; }

  /// Parses `kind[:key=val,...]`; keys: ring, segment (shm); peers, sendq
  /// (tcp; peers separated by '+'); rank (at most INT_MAX). ring and sendq
  /// take a k or M suffix. Throws parda::CheckError on unknown kinds/keys
  /// or malformed (util/parse.hpp) or out-of-range values.
  static TransportSpec parse(const std::string& text);

  /// Canonical round-trippable spelling (parse(describe()) == *this, minus
  /// defaulted fields).
  std::string describe() const;

  /// Stable identity string for world caching and bench-point params
  /// ("threads", "shm", "tcp", ...): the kind plus any identity-bearing
  /// parameters, without endpoint noise like ephemeral ports.
  std::string signature() const;

  /// Throws parda::CheckError when the spec cannot drive an np-rank World
  /// (threads+distributed, peers count mismatch, local_rank out of range).
  void validate(int np) const;

  bool operator==(const TransportSpec& other) const = default;
};

}  // namespace parda::comm

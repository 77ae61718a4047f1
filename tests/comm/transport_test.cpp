// Tests for the pluggable transport layer (ISSUE 8).
//
// The acceptance bar: the SAME rank bodies, fault-tolerance machinery, and
// histogram math must behave identically whether messages move by mailbox
// handoff (threads), through shared-memory byte rings (shm), or over
// length-prefixed TCP frames (tcp). The equality suite here runs one
// trace/seed over all three wires and demands bit-identical
// parda.histogram.v1 output; the fault matrix demands equivalent abort
// attribution and deadline behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "../util/mutations.hpp"
#include "../util/number_tokens.hpp"
#include "comm/comm.hpp"
#include "comm/fault.hpp"
#include "comm/transport/frame.hpp"
#include "comm/transport/ring.hpp"
#include "comm/transport/spec.hpp"
#include "comm/transport/transport.hpp"
#include "comm/worker_pool.hpp"
#include "core/parda.hpp"
#include "trace/trace_pipe.hpp"
#include "util/check.hpp"
#include "workload/generators.hpp"

namespace parda::comm {
namespace {

using std::chrono::milliseconds;

/// Every wire the equality/fault matrices sweep. "threads" is the control:
/// the seed's zero-copy path, against which shm and tcp must be
/// indistinguishable from above the Comm surface.
const char* const kWires[] = {"threads", "shm", "tcp"};

/// RunOptions for a wire, with a generous safety-net deadline so a
/// transport bug fails the test instead of hanging the suite.
RunOptions on_wire(const std::string& spec_text) {
  RunOptions opts;
  opts.transport = TransportSpec::parse(spec_text);
  opts.op_timeout = milliseconds(20000);
  return opts;
}

// --- TransportSpec: the redesigned configuration surface --------------------

TEST(TransportSpecTest, ParsesBareKindsWithDefaults) {
  const TransportSpec threads = TransportSpec::parse("threads");
  EXPECT_EQ(threads.kind, TransportKind::kThreads);
  EXPECT_EQ(threads.local_rank, kAllRanksLocal);
  EXPECT_TRUE(threads.zero_copy());
  EXPECT_FALSE(threads.distributed());

  const TransportSpec shm = TransportSpec::parse("shm");
  EXPECT_EQ(shm.kind, TransportKind::kShm);
  EXPECT_FALSE(shm.zero_copy());

  const TransportSpec tcp = TransportSpec::parse("tcp");
  EXPECT_EQ(tcp.kind, TransportKind::kTcp);
  EXPECT_TRUE(tcp.peers.empty());
}

TEST(TransportSpecTest, ParsesParameterClauses) {
  const TransportSpec shm =
      TransportSpec::parse("shm:ring=64k,segment=/parda-t,rank=2");
  EXPECT_EQ(shm.ring_bytes, 64u * 1024u);
  EXPECT_EQ(shm.segment, "/parda-t");
  EXPECT_EQ(shm.local_rank, 2);
  EXPECT_TRUE(shm.distributed());

  const TransportSpec tcp =
      TransportSpec::parse("tcp:peers=a:7000+b:7001,sendq=2M,rank=0");
  ASSERT_EQ(tcp.peers.size(), 2u);
  EXPECT_EQ(tcp.peers[0], "a:7000");
  EXPECT_EQ(tcp.peers[1], "b:7001");
  EXPECT_EQ(tcp.sendq_bytes, 2u * 1024u * 1024u);
  EXPECT_EQ(tcp.local_rank, 0);
}

TEST(TransportSpecTest, DescribeRoundTrips) {
  for (const char* text :
       {"threads", "shm", "tcp", "shm:ring=65536,segment=/parda-x,rank=1",
        "tcp:peers=h0:9+h1:10,sendq=1024,rank=0"}) {
    const TransportSpec spec = TransportSpec::parse(text);
    EXPECT_EQ(TransportSpec::parse(spec.describe()), spec) << text;
  }
}

TEST(TransportSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(TransportSpec::parse("carrier-pigeon"), CheckError);
  EXPECT_THROW(TransportSpec::parse("shm:bogus=1"), CheckError);
  EXPECT_THROW(TransportSpec::parse("threads:ring=4k"), CheckError);
  EXPECT_THROW(TransportSpec::parse("tcp:ring=4k"), CheckError);  // shm key
  EXPECT_THROW(TransportSpec::parse("shm:ring=0"), CheckError);
  EXPECT_THROW(TransportSpec::parse("shm:ring=4q"), CheckError);
  EXPECT_THROW(TransportSpec::parse("shm:rank=-1"), CheckError);
  EXPECT_THROW(TransportSpec::parse("shm:segment"), CheckError);  // no '='
}

TEST(TransportSpecTest, EveryNumberRejectsHostileTokens) {
  for (const std::string& token : test::hostile_integer_tokens()) {
    for (const std::string& text :
         {"shm:ring=" + token, "shm:ring=" + token + "k",
          "tcp:sendq=" + token, "tcp:sendq=" + token + "M",
          "tcp:rank=" + token}) {
      EXPECT_THROW(TransportSpec::parse(text), CheckError) << text;
    }
  }
  // Out of range: a rank above INT_MAX (no longer rank 0 or 1), a ring
  // below the segment's minimum or above the cap (including a k product
  // that wraps to 0), a negative send queue.
  for (const char* text :
       {"tcp:rank=4294967296", "tcp:rank=4294967297", "shm:ring=-1",
        "shm:ring=18446744073709551615", "shm:ring=18014398509481984k",
        "shm:ring=128", "shm:ring=255", "shm:ring=1073741825",
        "shm:ring=1025M", "tcp:sendq=-1", "tcp:sendq=0",
        "tcp:sendq=17592186044416M"}) {
    EXPECT_THROW(TransportSpec::parse(text), CheckError) << text;
  }
}

TEST(TransportSpecTest, ValidNumbersReadBack) {
  for (const auto& [token, value] : test::valid_integer_tokens()) {
    if (value > 0) {
      EXPECT_EQ(TransportSpec::parse("tcp:sendq=" + token).sendq_bytes,
                value)
          << token;
    }
    if (value <= 2147483647u) {
      EXPECT_EQ(TransportSpec::parse("tcp:rank=" + token).local_rank,
                static_cast<int>(value))
          << token;
    }
  }
  EXPECT_EQ(TransportSpec::parse("shm:ring=256").ring_bytes, kMinRingBytes);
  EXPECT_EQ(TransportSpec::parse("shm:ring=0x100").ring_bytes, 256u);
  EXPECT_EQ(TransportSpec::parse("shm:ring=1024M").ring_bytes, kMaxRingBytes);
  EXPECT_EQ(TransportSpec::parse("shm:ring=1048576k").ring_bytes,
            kMaxRingBytes);
  EXPECT_EQ(TransportSpec::parse("tcp:rank=2147483647").local_rank,
            2147483647);
}

TEST(TransportSpecTest, SignatureExcludesEndpointNoise) {
  // Two worlds that differ only in rendezvous endpoints share wire
  // identity (and may share a pooled World); different kinds never do.
  EXPECT_EQ(TransportSpec::parse("shm:segment=/a").signature(),
            TransportSpec::parse("shm:segment=/b").signature());
  EXPECT_EQ(TransportSpec::parse("tcp:peers=a:1+b:2,rank=0").signature(),
            TransportSpec::parse("tcp:peers=c:3+d:4,rank=0").signature());
  EXPECT_NE(TransportSpec::parse("threads").signature(),
            TransportSpec::parse("shm").signature());
  EXPECT_NE(TransportSpec::parse("shm").signature(),
            TransportSpec::parse("shm:ring=4k").signature());
}

TEST(TransportSpecTest, ValidateEnforcesTheDistributedMatrix) {
  EXPECT_NO_THROW(TransportSpec::parse("threads").validate(4));
  EXPECT_NO_THROW(TransportSpec::parse("shm").validate(4));
  EXPECT_NO_THROW(TransportSpec::parse("tcp").validate(4));
  EXPECT_NO_THROW(
      TransportSpec::parse("shm:segment=/s,rank=3").validate(4));
  EXPECT_NO_THROW(
      TransportSpec::parse("tcp:peers=a:1+b:2,rank=1").validate(2));

  // threads cannot span processes.
  EXPECT_THROW(TransportSpec::parse("threads:rank=0").validate(2),
               CheckError);
  // rank out of range.
  EXPECT_THROW(TransportSpec::parse("shm:segment=/s,rank=4").validate(4),
               CheckError);
  // distributed shm needs a named segment to rendezvous on.
  EXPECT_THROW(TransportSpec::parse("shm:rank=0").validate(2), CheckError);
  // distributed tcp needs one endpoint per rank.
  EXPECT_THROW(TransportSpec::parse("tcp:peers=a:1,rank=0").validate(2),
               CheckError);
  // peers without rank: in-process worlds build their own loopback mesh.
  EXPECT_THROW(TransportSpec::parse("tcp:peers=a:1+b:2").validate(2),
               CheckError);
}

// --- Ring and frame plumbing ------------------------------------------------

TEST(ByteRingTest, StreamsWritesLargerThanCapacity) {
  // A 64-byte ring must pass a 4KiB write through in pieces: the ring
  // bounds memory, never message size.
  transport::RingHeader header;
  std::vector<std::byte> storage(64);
  transport::ByteRing ring(&header, storage.data(), storage.size());

  std::vector<std::byte> sent(4096);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::byte>(i * 131 + 7);
  }
  std::thread producer([&] {
    const bool ok = ring.write(
        sent.data(), sent.size(), [] { return true; }, [] {});
    EXPECT_TRUE(ok);
  });
  std::vector<std::byte> got;
  std::byte buf[48];
  while (got.size() < sent.size()) {
    const std::size_t n = ring.read_some(buf, sizeof(buf));
    got.insert(got.end(), buf, buf + n);
  }
  producer.join();
  EXPECT_EQ(got, sent);
}

TEST(ByteRingTest, AbandonedWriteReportsFailure) {
  // keep_waiting returning false must abandon a blocked write instead of
  // spinning forever — this is how an abort unsticks a full ring.
  transport::RingHeader header;
  std::vector<std::byte> storage(16);
  transport::ByteRing ring(&header, storage.data(), storage.size());
  std::vector<std::byte> data(64);
  EXPECT_FALSE(ring.write(
      data.data(), data.size(), [] { return false; }, [] {}));
}

TEST(FrameReaderTest, ReassemblesFramesAcrossArbitraryFragmentation) {
  // Two frames, fed one to three bytes at a time: the reader must emit
  // exactly two complete (header, payload) pairs regardless of how the
  // stream fragments.
  std::vector<std::byte> stream;
  transport::FrameHeader h1;
  h1.src = 1;
  h1.tag = 42;
  const std::string p1 = "hello, wire";
  h1.payload_bytes = p1.size();
  const auto f1 = transport::encode_frame(
      h1, {reinterpret_cast<const std::byte*>(p1.data()), p1.size()});
  transport::FrameHeader h2;
  h2.src = 2;
  h2.tag = 7;
  h2.payload_bytes = 0;
  const auto f2 = transport::encode_frame(h2, {});
  stream.insert(stream.end(), f1.begin(), f1.end());
  stream.insert(stream.end(), f2.begin(), f2.end());

  std::size_t at = 0;
  std::size_t dribble = 0;
  const auto pull = [&](std::byte* dst, std::size_t max) {
    const std::size_t n =
        std::min({max, stream.size() - at, dribble % 3 + 1});
    ++dribble;
    std::memcpy(dst, stream.data() + at, n);
    at += n;
    return n;
  };

  std::vector<std::pair<transport::FrameHeader, std::string>> frames;
  transport::FrameReader reader;
  while (at < stream.size()) {
    reader.drain(pull, [&](const transport::FrameHeader& h,
                           std::vector<std::byte>&& payload) {
      frames.emplace_back(
          h, std::string(reinterpret_cast<const char*>(payload.data()),
                         payload.size()));
    });
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].first.tag, 42);
  EXPECT_EQ(frames[0].second, "hello, wire");
  EXPECT_EQ(frames[1].first.src, 2);
  EXPECT_EQ(frames[1].second, "");
}

TEST(FrameReaderTest, DeclaredPayloadIsNotAllocatedUpFront) {
  // A forged header may declare up to 2^40 payload bytes. The reader must
  // not size its buffer from that claim before the bytes arrive: here 64
  // arrive, so it consumes the 96 bytes offered and waits for more.
  transport::FrameHeader header;
  header.payload_bytes = std::uint64_t{1} << 40;
  std::vector<std::byte> stream(sizeof(header) + 64, std::byte{0x5A});
  std::memcpy(stream.data(), &header, sizeof(header));
  std::size_t at = 0;
  const auto pull = [&](std::byte* dst, std::size_t max) {
    const std::size_t n = std::min(max, stream.size() - at);
    std::memcpy(dst, stream.data() + at, n);
    at += n;
    return n;
  };
  bool delivered = false;
  transport::FrameReader reader;
  std::size_t consumed = 0;
  EXPECT_NO_THROW(consumed = reader.drain(
                      pull, [&](const transport::FrameHeader&,
                                std::vector<std::byte>&&) {
                        delivered = true;
                      }));
  EXPECT_EQ(consumed, 96u);
  EXPECT_FALSE(delivered);
}

// --- Comm semantics over every wire ----------------------------------------

TEST(CrossTransportTest, PointToPointSemanticsHoldOnEveryWire) {
  for (const char* wire : kWires) {
    SCOPED_TRACE(wire);
    run(
        3,
        [](Comm& comm) {
          // Ping-pong + out-of-order tags + wildcard source, the core of
          // the transport-neutral point-to-point contract.
          if (comm.rank() == 0) {
            comm.send(1, 1, std::vector<std::uint64_t>{1, 2, 3});
            comm.send(1, 2, std::vector<std::uint64_t>{9});
            bool seen1 = false;
            bool seen2 = false;
            for (int i = 0; i < 2; ++i) {
              int src = -2;
              const auto v = comm.recv<std::uint64_t>(kAnySource, 5, &src);
              EXPECT_EQ(v.at(0), static_cast<std::uint64_t>(src) * 10);
              seen1 |= src == 1;
              seen2 |= src == 2;
            }
            EXPECT_TRUE(seen1);
            EXPECT_TRUE(seen2);
          } else if (comm.rank() == 1) {
            EXPECT_EQ(comm.recv<std::uint64_t>(0, 2).at(0), 9u);  // tag 2 first
            EXPECT_EQ(comm.recv<std::uint64_t>(0, 1).size(), 3u);
            comm.send(0, 5, std::vector<std::uint64_t>{10});
          } else {
            comm.send(0, 5, std::vector<std::uint64_t>{20});
          }
          comm.barrier();
        },
        on_wire(wire));
  }
}

TEST(CrossTransportTest, BarriersSynchronizeOnEveryWire) {
  for (const char* wire : kWires) {
    SCOPED_TRACE(wire);
    std::atomic<int> phase{0};
    run(
        4,
        [&](Comm& comm) {
          for (int round = 0; round < 5; ++round) {
            EXPECT_EQ(phase.load(), round);
            comm.barrier();
            // Every rank observed phase == round before any rank moves on;
            // one designated rank advances it between barriers.
            if (comm.rank() == 0) ++phase;
            comm.barrier();
          }
        },
        on_wire(wire));
    EXPECT_EQ(phase.load(), 5);
  }
}

TEST(CrossTransportTest, ByteAccountingIsHonestPerWire) {
  const std::vector<std::uint64_t> block(1024, 7);
  for (const char* wire : kWires) {
    SCOPED_TRACE(wire);
    const RunStats stats = run(
        2,
        [&](Comm& comm) {
          if (comm.rank() == 0) {
            auto copy = block;
            comm.send(1, 3, std::move(copy));  // ownership handoff
          } else {
            comm.recv<std::uint64_t>(0, 3);
          }
          comm.barrier();
        },
        on_wire(wire));
    const std::uint64_t payload = block.size() * sizeof(std::uint64_t);
    EXPECT_GE(stats.total_bytes(), payload);
    if (std::string(wire) == "threads") {
      // Moved-ownership send travels zero-copy in process.
      EXPECT_GE(stats.total_bytes_shared(), payload);
    } else {
      // One counted serialization copy per wire crossing.
      EXPECT_GE(stats.total_bytes_copied(), payload);
      EXPECT_EQ(stats.total_bytes_shared(), 0u);
    }
  }
}

TEST(CrossTransportTest, SharedViewsDegradeToCopiesOffThreads) {
  // scatterv_view hands out refcounted slices of one block on the threads
  // wire and falls back to per-receiver copies on serializing wires — same
  // values either way (the graceful-degradation half of the view contract).
  for (const char* wire : kWires) {
    SCOPED_TRACE(wire);
    const RunStats stats = run(
        3,
        [](Comm& comm) {
          std::vector<std::uint64_t> block;
          std::vector<std::pair<std::uint64_t, std::uint64_t>> slices;
          if (comm.rank() == 0) {
            block.resize(3 * 512);
            for (std::size_t i = 0; i < block.size(); ++i) block[i] = i * 3 + 1;
            slices = {{0, 512}, {512, 512}, {1024, 512}};
          }
          const View<std::uint64_t> view = comm.scatterv_view(
              std::move(block),
              std::span<const std::pair<std::uint64_t, std::uint64_t>>(
                  slices),
              0, 9);
          const std::uint64_t first =
              static_cast<std::uint64_t>(comm.rank()) * 512;
          ASSERT_EQ(view.span().size(), 512u);
          EXPECT_EQ(view.span()[0], first * 3 + 1);
          EXPECT_EQ(view.span()[511], (first + 511) * 3 + 1);
          comm.barrier();
        },
        on_wire(wire));
    const std::uint64_t slice_bytes = 512 * sizeof(std::uint64_t);
    if (std::string(wire) == "threads") {
      EXPECT_EQ(stats.total_bytes_copied(), 0u);
      EXPECT_EQ(stats.total_bytes_shared(), 2 * slice_bytes);
    } else {
      EXPECT_EQ(stats.total_bytes_copied(), 2 * slice_bytes);
      EXPECT_EQ(stats.total_bytes_shared(), 0u);
    }
  }
}

// --- Hostile frames: the envelope is checked before delivery ---------------

/// Rank 1 posts one data frame with a forged src to rank 0 over `wire`
/// while rank 0 waits for rank 1's message. The pump must reject the frame
/// and abort the world, so rank 0 sees RankAbortedError: the forged src
/// never reaches a mailbox bucket.
void expect_forged_frame_aborts(const char* wire, int src) {
  detail::World world(2, TransportSpec::parse(wire));
  RankStats stats;
  Comm comm(world, 0, stats, nullptr, milliseconds(3000));
  Message forged;
  forged.src = src;
  forged.tag = 5;
  forged.payload = Payload::own(std::vector<std::uint64_t>{7});
  world.route(1, 0, std::move(forged));
  EXPECT_THROW(comm.recv<std::uint64_t>(1, 5), RankAbortedError);
}

TEST(HostileFrameTest, SpoofedSrcAborts) {
  for (const char* wire : {"shm", "tcp"}) {
    SCOPED_TRACE(wire);
    // Rank 1's ring or connection carries a frame claiming rank 0 sent it.
    expect_forged_frame_aborts(wire, /*src=*/0);
  }
}

/// An abort frame with the given src, delivered from rank 1's ring to
/// rank 0 of a fresh 3-rank World.
void deliver_abort(detail::World& world, int src) {
  transport::FrameHeader header;
  header.kind = static_cast<std::uint32_t>(transport::FrameKind::kAbort);
  header.src = src;
  header.tag = 2;  // not an origin: abort frames ignore their tag
  const std::string cause = "rank 1 failed";
  header.payload_bytes = cause.size();
  std::vector<std::byte> payload(cause.size());
  std::memcpy(payload.data(), cause.data(), cause.size());
  transport::deliver_frame(world, /*from=*/1, /*dst=*/0, header,
                           std::move(payload));
}

TEST(HostileFrameTest, AbortFrameFromAnotherRankIsRefused) {
  // The ring's owner is rank 1; a frame naming rank 2 is forged, so it
  // must not poison the World in anyone's name.
  detail::World world(3, TransportSpec::parse("threads"));
  EXPECT_THROW(deliver_abort(world, /*src=*/2), CheckError);
  EXPECT_FALSE(world.aborted());
}

TEST(HostileFrameTest, AbortFrameNamesItsSenderAsOrigin) {
  detail::World world(3, TransportSpec::parse("threads"));
  deliver_abort(world, /*src=*/1);
  ASSERT_TRUE(world.aborted());
  try {
    world.throw_aborted();
  } catch (const RankAbortedError& e) {
    EXPECT_EQ(e.origin_rank(), 1);
    EXPECT_NE(std::string(e.what()).find("rank 1 failed"), std::string::npos)
        << e.what();
  }
}

TEST(HostileFrameTest, ReaderSurvivesEveryMutationOfAStream) {
  // Rank 1 of a 3-rank World streams rank 0 a data frame with an 8-word
  // payload, then an empty data frame: 96 + 32 = 128 bytes.
  transport::FrameHeader full;
  full.src = 1;
  full.tag = 5;
  const std::vector<std::uint64_t> words{1, 2, 3, 4, 5, 6, 7, 8};
  full.payload_bytes = sizeof(std::uint64_t) * words.size();
  transport::FrameHeader empty = full;
  empty.tag = 6;
  empty.payload_bytes = 0;
  std::vector<std::uint8_t> clean;
  for (const std::vector<std::byte>& frame :
       {transport::encode_frame(full, std::as_bytes(std::span(words))),
        transport::encode_frame(empty, {})}) {
    for (const std::byte b : frame) {
      clean.push_back(static_cast<std::uint8_t>(b));
    }
  }
  ASSERT_EQ(clean.size(), 128u);

  // Each mutation must be refused with CheckError, poison the World (an
  // abort frame), deliver frames whose envelopes passed the checks, or
  // leave the reader waiting for bytes it was not given.
  std::size_t refused = 0;
  std::size_t poisoned = 0;
  std::size_t delivered = 0;
  std::size_t waiting = 0;
  for_each_mutation(clean, [&](const Mutation& m) {
    detail::World world(3, TransportSpec::parse("threads"));
    transport::FrameReader reader;
    std::size_t at = 0;
    const auto pull = [&](std::byte* dst, std::size_t max) {
      const std::size_t n = std::min(max, m.bytes.size() - at);
      if (n != 0) std::memcpy(dst, m.bytes.data() + at, n);
      at += n;
      return n;
    };
    std::vector<transport::FrameHeader> pushed;
    std::size_t consumed = 0;
    try {
      consumed = reader.drain(pull, [&](const transport::FrameHeader& h,
                                        std::vector<std::byte>&& payload) {
        const std::size_t depth = world.mailbox(0).depth();
        transport::deliver_frame(world, 1, 0, h, std::move(payload));
        if (world.mailbox(0).depth() > depth) pushed.push_back(h);
      });
    } catch (const CheckError&) {
      ++refused;
      return;
    }
    EXPECT_EQ(consumed, m.bytes.size()) << m.label;
    for (const transport::FrameHeader& h : pushed) {
      EXPECT_EQ(h.kind, 0u) << m.label;
      EXPECT_EQ(h.src, 1) << m.label;
      EXPECT_EQ(h.generation, world.generation()) << m.label;
    }
    if (world.aborted()) {
      ++poisoned;
    } else if (!pushed.empty()) {
      ++delivered;
    } else {
      ++waiting;
    }
  });
  EXPECT_EQ(refused + poisoned + delivered + waiting, 128u + 1 + 128 * 8);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(poisoned, 0u);
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(waiting, 0u);
}

// --- The equality suite: bit-identical histograms ---------------------------

std::vector<Addr> equality_trace(std::size_t n, std::uint64_t seed) {
  std::vector<std::unique_ptr<Workload>> kids;
  kids.push_back(std::make_unique<ZipfWorkload>(400, 0.8, seed, 0));
  kids.push_back(std::make_unique<SequentialWorkload>(128, 1));
  MixWorkload mix(std::move(kids), {0.7, 0.3}, seed);
  return generate_trace(mix, n);
}

TEST(CrossTransportEqualityTest, OfflineHistogramsAreBitIdentical) {
  const auto trace = equality_trace(6000, 17);
  for (const std::uint64_t bound : {std::uint64_t{0}, std::uint64_t{128}}) {
    for (const int np : {1, 2, 4}) {
      PardaOptions options;
      options.num_procs = np;
      if (bound != 0) options.bound = bound;
      options.run_options = on_wire("threads");
      const PardaResult expected = parda_analyze(trace, options);
      const std::string expected_json = expected.hist.to_json();
      for (const char* wire : {"shm", "tcp"}) {
        SCOPED_TRACE(std::string(wire) + " np=" + std::to_string(np) +
                     " bound=" + std::to_string(bound));
        options.run_options = on_wire(wire);
        const PardaResult got = parda_analyze(trace, options);
        EXPECT_TRUE(got.hist == expected.hist);
        // Bit-identical parda.histogram.v1, not just equal totals.
        EXPECT_EQ(got.hist.to_json(), expected_json);
      }
    }
  }
}

TEST(CrossTransportEqualityTest, StreamedHistogramsAreBitIdentical) {
  const auto trace = equality_trace(5000, 23);
  PipeTraceSource source(1024, [&](TracePipe& pipe) {
    constexpr std::size_t kBlock = 257;
    for (std::size_t at = 0; at < trace.size(); at += kBlock) {
      const std::size_t hi = std::min(at + kBlock, trace.size());
      pipe.write(std::span<const Addr>(trace.data() + at, hi - at));
    }
  });
  const auto streamed = [&](const char* wire, int np) {
    PardaOptions options;
    options.num_procs = np;
    options.chunk_words = 320;
    options.run_options = on_wire(wire);
    return parda_analyze(source, options);
  };
  for (const int np : {2, 4}) {
    const PardaResult expected = streamed("threads", np);
    for (const char* wire : {"shm", "tcp"}) {
      SCOPED_TRACE(std::string(wire) + " np=" + std::to_string(np));
      const PardaResult got = streamed(wire, np);
      EXPECT_TRUE(got.hist == expected.hist);
      EXPECT_EQ(got.hist.to_json(), expected.hist.to_json());
    }
  }
}

// --- Fault equivalence: aborts and deadlines per wire -----------------------

/// Mirror of fault_test's harness: run `body` under `opts` with rank
/// `faulty` set up to throw, assert run() rethrows the injected error and
/// every surviving rank sees a RankAbortedError attributed to `faulty`.
template <typename Body>
void expect_attributed_abort(int np, int faulty, const RunOptions& opts,
                             Body&& body) {
  std::vector<int> observed_origin(static_cast<std::size_t>(np), -100);
  EXPECT_THROW(
      run(np,
          [&](Comm& comm) {
            try {
              body(comm);
              comm.barrier();
            } catch (const RankAbortedError& e) {
              observed_origin[static_cast<std::size_t>(comm.rank())] =
                  e.origin_rank();
              throw;
            }
          },
          opts),
      FaultInjectedError);
  for (int r = 0; r < np; ++r) {
    if (r == faulty) continue;
    EXPECT_EQ(observed_origin[static_cast<std::size_t>(r)], faulty)
        << "rank " << r << " did not see an abort attributed to rank "
        << faulty;
  }
}

TEST(CrossTransportFaultTest, AbortAttributionIsIdenticalOnEveryWire) {
  // The FaultPlan seed matrix: every (wire, plan) cell must end with the
  // injected error rethrown and the origin correctly attributed on every
  // surviving rank — the transport must neither eat nor re-attribute an
  // abort.
  struct Cell {
    const char* plan;
    int faulty;
  };
  const Cell kMatrix[] = {
      {"rank=1,op=recv,n=0", 1},
      {"rank=0,op=send,n=0", 0},
      {"rank=2,op=recv,n=1", 2},  // n counts ops zero-based: second recv
  };
  for (const char* wire : kWires) {
    for (const Cell& cell : kMatrix) {
      SCOPED_TRACE(std::string(wire) + " plan=" + cell.plan);
      FaultPlan plan = FaultPlan::parse(cell.plan);
      RunOptions opts = on_wire(wire);
      opts.fault_plan = &plan;
      expect_attributed_abort(3, cell.faulty, opts, [](Comm& comm) {
        // Every rank sends to and receives from its neighbors, so every
        // rank crosses both a send and enough recv points for the matrix.
        const int next = (comm.rank() + 1) % comm.size();
        const int prev = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send(next, 1, std::vector<int>{comm.rank()});
        EXPECT_EQ(comm.recv<int>(prev, 1).at(0), prev);
        comm.send(prev, 2, std::vector<int>{comm.rank()});
        EXPECT_EQ(comm.recv<int>(next, 2).at(0), next);
      });
    }
  }
}

TEST(CrossTransportFaultTest, RecvDeadlineFiresOnEveryWire) {
  for (const char* wire : kWires) {
    SCOPED_TRACE(wire);
    RunOptions opts = on_wire(wire);
    opts.op_timeout = milliseconds(200);
    EXPECT_THROW(
        run(
            2,
            [](Comm& comm) {
              if (comm.rank() == 0) {
                comm.recv<int>(1, 77);  // rank 1 never sends: must time out
              }
            },
            opts),
        DeadlineExceededError);
  }
}

TEST(CrossTransportFaultTest, WatchdogFiresOnRecvCycleOnEveryWire) {
  // The classic two-rank recv deadlock: only the stall watchdog can end
  // it, and it must attribute the abort to kWatchdogOrigin on every wire.
  for (const char* wire : kWires) {
    SCOPED_TRACE(wire);
    RunOptions opts = on_wire(wire);
    opts.op_timeout = {};  // no per-op deadline: only the watchdog can fire
    opts.watchdog_interval = milliseconds(50);
    try {
      run(
          2, [](Comm& comm) { comm.recv<int>(1 - comm.rank(), 0); }, opts);
      FAIL() << "expected the watchdog to abort the deadlocked run";
    } catch (const RankAbortedError& e) {
      EXPECT_EQ(e.origin_rank(), kWatchdogOrigin);
      EXPECT_NE(std::string(e.what()).find("stall detected"),
                std::string::npos)
          << e.what();
    }
  }
}

// --- Pooled reuse per wire --------------------------------------------------

TEST(CrossTransportPoolTest, WorldsAreReusedAndRecoverAfterAborts) {
  WorkerPool pool;
  const auto clean_job = [](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.send(next, 4, std::vector<int>{comm.rank() * 11});
    EXPECT_EQ(comm.recv<int>(prev, 4).at(0), prev * 11);
    comm.barrier();
  };
  for (const char* wire : kWires) {
    SCOPED_TRACE(wire);
    const std::uint64_t reuses_before = pool.world_reuses();
    pool.run_job(3, clean_job, on_wire(wire));
    pool.run_job(3, clean_job, on_wire(wire));  // same world, rings warm
    EXPECT_THROW(pool.run_job(
                     3,
                     [](Comm& comm) {
                       if (comm.rank() == 1) {
                         throw std::runtime_error("induced failure");
                       }
                       comm.barrier();
                     },
                     on_wire(wire)),
                 std::runtime_error);
    // The poisoned world is cleared (generation bump, rings/mesh rewound)
    // and the next job on the same wire runs clean.
    pool.run_job(3, clean_job, on_wire(wire));
    EXPECT_GE(pool.world_reuses(), reuses_before + 2);
  }
  // Different wires never share a world even at the same np.
  EXPECT_GE(pool.worlds_created(), 3u);
}

TEST(CrossTransportPoolTest, DistributedSpecsBypassThePool) {
  // A distributed spec must be rejected fast when misconfigured, not
  // cached: validate() runs before any world exists.
  WorkerPool pool;
  RunOptions opts;
  opts.transport = TransportSpec::parse("tcp:peers=a:1,rank=0");
  EXPECT_THROW(pool.run_job(2, [](Comm&) {}, opts), CheckError);
  EXPECT_EQ(pool.jobs_run(), 0u);
}

}  // namespace
}  // namespace parda::comm

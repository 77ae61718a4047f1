// Fault-tolerance tests for the comm runtime: abort propagation, recv and
// barrier deadlines, the stall watchdog, and the deterministic FaultPlan.
//
// The acceptance bar (ISSUE 2): every fault injected by the FaultPlan
// matrix must end the run with the injected error rethrown by run() and a
// RankAbortedError attributed to the originating rank on every blocked
// rank, within the deadline — zero hangs. These tests run under TSAN in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../util/number_tokens.hpp"
#include "comm/comm.hpp"
#include "comm/fault.hpp"
#include "util/check.hpp"

namespace parda::comm {
namespace {

using std::chrono::milliseconds;

/// Safety net for every test here: generous per-op deadlines so a bug in
/// abort propagation fails the test instead of hanging the suite.
RunOptions guarded() {
  RunOptions opts;
  opts.op_timeout = milliseconds(5000);
  // The fault-injection sweep (scripts/run_fault_injection.sh) reruns
  // the suite per wire: teardown guarantees must not depend on the
  // transport moving the bytes.
  if (const char* wire = std::getenv("PARDA_FAULT_TRANSPORT")) {
    if (*wire != '\0') opts.transport = TransportSpec::parse(wire);
  }
  return opts;
}

/// Runs `body` on np ranks under `opts` (whose plan makes rank `faulty`
/// throw), with a trailing barrier so every surviving rank deterministically
/// blocks until the poisoning reaches it. Asserts run() rethrows the
/// injected error and every other rank observes a RankAbortedError
/// attributed to `faulty`.
template <typename Body>
void expect_attributed_abort(int np, int faulty, const RunOptions& opts,
                             Body&& body) {
  std::vector<int> observed_origin(static_cast<std::size_t>(np), -100);
  EXPECT_THROW(
      run(np,
          [&](Comm& comm) {
            try {
              body(comm);
              // The faulty rank never gets here, so survivors park in the
              // barrier until the abort wakes them.
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

TEST(FaultPlanTest, ParsesAndDescribesRoundTrip) {
  const FaultPlan plan = FaultPlan::parse(
      "rank=1,op=recv,n=3;rank=0,op=send,n=2,action=delay,ms=50;"
      "op=producer,after_words=10000");
  ASSERT_EQ(plan.points().size(), 3u);
  EXPECT_EQ(plan.points()[0].rank, 1);
  EXPECT_EQ(plan.points()[0].op, FaultOp::kRecv);
  EXPECT_EQ(plan.points()[0].n, 3u);
  EXPECT_EQ(plan.points()[1].action, FaultPoint::Action::kDelay);
  EXPECT_EQ(plan.points()[1].delay_ms, 50u);
  ASSERT_TRUE(plan.producer_fail_after().has_value());
  EXPECT_EQ(*plan.producer_fail_after(), 10000u);
  // describe() round-trips through the grammar.
  const FaultPlan reparsed = FaultPlan::parse(plan.describe());
  EXPECT_EQ(reparsed.describe(), plan.describe());
}

TEST(FaultPlanTest, MatchFiresOnlyAtTheNamedPoint) {
  const FaultPlan plan = FaultPlan::parse("rank=1,op=recv,n=3");
  EXPECT_EQ(plan.match(1, FaultOp::kRecv, 3), &plan.points()[0]);
  EXPECT_EQ(plan.match(1, FaultOp::kRecv, 2), nullptr);
  EXPECT_EQ(plan.match(0, FaultOp::kRecv, 3), nullptr);
  EXPECT_EQ(plan.match(1, FaultOp::kSend, 3), nullptr);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("rank=1"), CheckError);          // missing op
  EXPECT_THROW(FaultPlan::parse("op=recv"), CheckError);         // missing rank
  EXPECT_THROW(FaultPlan::parse("rank=1,op=frobnicate"), CheckError);
  EXPECT_THROW(FaultPlan::parse("rank=x,op=recv"), CheckError);
  EXPECT_THROW(FaultPlan::parse("rank=1,op=recv,action=delay"), CheckError);
  EXPECT_THROW(FaultPlan::parse("rank=1,op=recv,bogus=1"), CheckError);
}

TEST(FaultPlanTest, EveryNumberRejectsHostileTokens) {
  for (const std::string& token : test::hostile_integer_tokens()) {
    for (const std::string& spec :
         {"rank=" + token + ",op=recv", "rank=0,op=recv,n=" + token,
          "rank=0,op=send,action=delay,ms=" + token,
          "op=producer,after_words=" + token}) {
      EXPECT_THROW(FaultPlan::parse(spec), CheckError) << spec;
    }
  }
  // A rank above INT_MAX is an error naming the value, not rank 0.
  try {
    FaultPlan::parse("rank=4294967296,op=recv,n=0");
    ADD_FAILURE() << "rank=4294967296 parsed";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("'4294967296'"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(FaultPlan::parse("rank=2147483648,op=recv"), CheckError);
  EXPECT_EQ(FaultPlan::parse("rank=2147483647,op=recv").points()[0].rank,
            2147483647);
}

TEST(FaultPlanTest, ValidNumbersReadBack) {
  for (const auto& [token, value] : test::valid_integer_tokens()) {
    const FaultPlan plan = FaultPlan::parse(
        "rank=0,op=recv,n=" + token + ";op=producer,after_words=" + token);
    EXPECT_EQ(plan.points()[0].n, value) << token;
    EXPECT_EQ(*plan.producer_fail_after(), value) << token;
  }
  EXPECT_EQ(FaultPlan::parse("rank=010,op=recv").points()[0].rank, 10);
  EXPECT_EQ(FaultPlan::parse("rank=0x1F,op=recv").points()[0].rank, 31);
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlanTest, RandomPlansAreDeterministic) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const FaultPlan a = FaultPlan::random(seed, 4);
    const FaultPlan b = FaultPlan::random(seed, 4);
    EXPECT_EQ(a.describe(), b.describe());
    ASSERT_EQ(a.points().size(), 1u);
    EXPECT_GE(a.points()[0].rank, 0);
    EXPECT_LT(a.points()[0].rank, 4);
    EXPECT_LT(a.points()[0].n, 4u);
  }
}

// --- The rank-throws-during-{send, recv, barrier, collective} matrix. ---

TEST(FaultMatrixTest, ThrowDuringSend) {
  const FaultPlan plan = FaultPlan::parse("rank=1,op=send,n=0");
  RunOptions opts = guarded();
  opts.fault_plan = &plan;
  // Ring: everyone sends right, receives from the left. Rank 1's send
  // faults before delivery, so rank 2 blocks until poisoned.
  expect_attributed_abort(4, 1, opts, [](Comm& comm) {
    comm.send((comm.rank() + 1) % 4, 1, std::vector<int>{comm.rank()});
    comm.recv<int>((comm.rank() + 3) % 4, 1);
  });
}

TEST(FaultMatrixTest, ThrowDuringRecv) {
  const FaultPlan plan = FaultPlan::parse("rank=2,op=recv,n=0");
  RunOptions opts = guarded();
  opts.fault_plan = &plan;
  expect_attributed_abort(4, 2, opts, [](Comm& comm) {
    comm.send((comm.rank() + 1) % 4, 1, std::vector<int>{comm.rank()});
    comm.recv<int>((comm.rank() + 3) % 4, 1);
  });
}

TEST(FaultMatrixTest, ThrowDuringBarrier) {
  const FaultPlan plan = FaultPlan::parse("rank=0,op=barrier,n=1");
  RunOptions opts = guarded();
  opts.fault_plan = &plan;
  expect_attributed_abort(4, 0, opts, [](Comm& comm) {
    comm.barrier();
    comm.barrier();  // rank 0 faults entering this one
  });
}

TEST(FaultMatrixTest, ThrowDuringCollective) {
  // Rank 3 dies inside the broadcast (its first collective-internal recv,
  // the hop from its tree parent).
  const FaultPlan plan = FaultPlan::parse("rank=3,op=recv,n=0");
  RunOptions opts = guarded();
  opts.fault_plan = &plan;
  expect_attributed_abort(8, 3, opts, [](Comm& comm) {
    std::vector<std::uint64_t> data;
    if (comm.rank() == 0) data = {1, 2, 3};
    comm.broadcast(std::move(data), 0, 7);
  });
}

TEST(FaultMatrixTest, ScattervViewAbortReachesBlockedRanks) {
  // Root faults on its second scatter send: rank 1 already has its slice,
  // but ranks 2 and 3 are still blocked and must observe the abort.
  const FaultPlan plan = FaultPlan::parse("rank=0,op=send,n=1");
  RunOptions opts = guarded();
  opts.fault_plan = &plan;
  std::atomic<int> aborted_ranks{0};
  EXPECT_THROW(
      run(4,
          [&](Comm& comm) {
            try {
              std::vector<std::uint64_t> block;
              std::vector<std::pair<std::uint64_t, std::uint64_t>> slices;
              if (comm.rank() == 0) {
                block.assign(40, 7);
                slices.assign(4, {0, 10});
              }
              comm.scatterv_view(
                  std::move(block),
                  std::span<const std::pair<std::uint64_t, std::uint64_t>>(
                      slices),
                  0, 9);
            } catch (const RankAbortedError& e) {
              EXPECT_EQ(e.origin_rank(), 0);
              aborted_ranks.fetch_add(1);
              throw;
            }
          },
          opts),
      FaultInjectedError);
  EXPECT_GE(aborted_ranks.load(), 2);
}

TEST(FaultMatrixTest, DelayActionOnlySlowsTheRun) {
  const FaultPlan plan =
      FaultPlan::parse("rank=0,op=send,n=0,action=delay,ms=20");
  RunOptions opts = guarded();
  opts.fault_plan = &plan;
  run(2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 1, std::vector<int>{42});
        } else {
          EXPECT_EQ(comm.recv<int>(0, 1).at(0), 42);
        }
      },
      opts);
}

/// The seed matrix of the acceptance criteria: for a spread of seeds,
/// inject the pseudo-random fault into a communication-heavy program and
/// require a clean attributed teardown on every rank — zero hangs. CI runs
/// this with PARDA_FAULT_SEED set to sweep additional seeds.
TEST(FaultMatrixTest, SeededRandomPlanAlwaysTearsDownCleanly) {
  constexpr int kNp = 4;
  std::vector<std::uint64_t> seeds;
  if (const char* env = std::getenv("PARDA_FAULT_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 0));
  } else {
    for (std::uint64_t s = 1; s <= 12; ++s) seeds.push_back(s);
  }
  for (const std::uint64_t seed : seeds) {
    const FaultPlan plan = FaultPlan::random(seed, kNp);
    RunOptions opts = guarded();
    opts.fault_plan = &plan;
    const int faulty = plan.points()[0].rank;
    bool threw = false;
    std::vector<int> observed(kNp, -100);
    try {
      run(kNp,
          [&](Comm& comm) {
            try {
              // A comm-heavy body hitting every op kind four times, so any
              // (op, n < 4) fault point is reached on every rank; the
              // per-round barrier guarantees no survivor outruns the fault.
              for (int round = 0; round < 4; ++round) {
                comm.send((comm.rank() + 1) % kNp, round,
                          std::vector<int>{comm.rank()});
                comm.recv<int>((comm.rank() + kNp - 1) % kNp, round);
                comm.barrier();
              }
            } catch (const RankAbortedError& e) {
              observed[static_cast<std::size_t>(comm.rank())] = e.origin_rank();
              throw;
            }
          },
          opts);
    } catch (const FaultInjectedError&) {
      threw = true;
    }
    ASSERT_TRUE(threw) << "seed " << seed << " plan " << plan.describe()
                       << " did not fire";
    for (int r = 0; r < kNp; ++r) {
      if (r == faulty) continue;
      EXPECT_EQ(observed[static_cast<std::size_t>(r)], faulty)
          << "seed " << seed << " plan " << plan.describe() << " rank " << r;
    }
  }
}

// --- Deadlines. ---

TEST(DeadlineTest, RecvTimesOut) {
  EXPECT_THROW(
      run(2,
          [](Comm& comm) {
            if (comm.rank() == 0) {
              // Nobody ever sends on tag 99.
              comm.recv<int>(1, 99, nullptr, nullptr, milliseconds(50));
            }
          }),
      DeadlineExceededError);
}

TEST(DeadlineTest, RecvTimeoutMessageNamesTheWait) {
  try {
    run(1, [](Comm& comm) {
      comm.recv<int>(0, 42, nullptr, nullptr, milliseconds(10));
    });
    FAIL() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tag=42"), std::string::npos) << what;
  }
}

TEST(DeadlineTest, BarrierTimesOutAndAbortsPeers) {
  std::atomic<int> peer_origin{-100};
  EXPECT_THROW(
      run(2,
          [&](Comm& comm) {
            if (comm.rank() == 0) {
              comm.barrier(milliseconds(50));  // rank 1 never arrives
            } else {
              try {
                comm.recv<int>(0, 1);  // parked until rank 0's abort
              } catch (const RankAbortedError& e) {
                peer_origin.store(e.origin_rank());
                throw;
              }
            }
          }),
      DeadlineExceededError);
  EXPECT_EQ(peer_origin.load(), 0);
}

TEST(DeadlineTest, DefaultOpTimeoutAppliesToEveryRecv) {
  RunOptions opts;
  opts.op_timeout = milliseconds(50);
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 0) comm.recv<int>(1, 5);
                   },
                   opts),
               DeadlineExceededError);
}

TEST(DeadlineTest, SatisfiedWaitBeatsTheDeadline) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, std::vector<int>{1});
      comm.barrier(milliseconds(5000));
    } else {
      EXPECT_EQ(
          comm.recv<int>(0, 3, nullptr, nullptr, milliseconds(5000)).at(0), 1);
      comm.barrier(milliseconds(5000));
    }
  });
}

// --- Plain exception propagation (no plan needed). ---

TEST(AbortTest, BodyExceptionUnblocksPeersAndRethrows) {
  std::vector<int> observed(3, -100);
  EXPECT_THROW(
      run(3,
          [&](Comm& comm) {
            if (comm.rank() == 1) {
              throw std::runtime_error("rank 1 exploded");
            }
            try {
              comm.recv<int>(1, 0);
            } catch (const RankAbortedError& e) {
              observed[static_cast<std::size_t>(comm.rank())] = e.origin_rank();
              EXPECT_NE(std::string(e.what()).find("rank 1 exploded"),
                        std::string::npos);
              throw;
            }
          },
          guarded()),
      std::runtime_error);
  EXPECT_EQ(observed[0], 1);
  EXPECT_EQ(observed[2], 1);
}

TEST(AbortTest, PoisoningBeatsQueuedMessages) {
  // Rank 0 queues a matching message at rank 1, then dies. Once the abort
  // has landed, popping that queued message must report the teardown, not
  // deliver the data.
  bool drained = false;
  EXPECT_THROW(
      run(2,
          [&](Comm& comm) {
            if (comm.rank() == 0) {
              comm.send(1, 1, std::vector<int>{7});
              throw std::runtime_error("boom");
            }
            // Probe a tag nobody uses until the poisoning is visible.
            for (;;) {
              try {
                comm.recv<int>(0, 2, nullptr, nullptr, milliseconds(5));
              } catch (const DeadlineExceededError&) {
                continue;
              } catch (const RankAbortedError&) {
                break;
              }
            }
            try {
              comm.recv<int>(0, 1);  // a matching message IS queued
              drained = true;
            } catch (const RankAbortedError& e) {
              EXPECT_EQ(e.origin_rank(), 0);
              throw;
            }
          }),
      std::runtime_error);
  EXPECT_FALSE(drained);
}

// --- Watchdog. ---

TEST(WatchdogTest, FiresOnHandcraftedRecvCycle) {
  RunOptions opts;
  opts.watchdog_interval = milliseconds(30);
  std::vector<int> observed(2, -100);
  try {
    run(2,
        [&](Comm& comm) {
          try {
            // Classic deadlock: each rank waits for the other's message.
            comm.recv<int>(1 - comm.rank(), 0);
          } catch (const RankAbortedError& e) {
            observed[static_cast<std::size_t>(comm.rank())] = e.origin_rank();
            throw;
          }
        },
        opts);
    FAIL() << "expected the watchdog to abort the deadlocked run";
  } catch (const RankAbortedError& e) {
    EXPECT_EQ(e.origin_rank(), kWatchdogOrigin);
    // The per-rank diagnostic dump rides in the error text.
    const std::string what = e.what();
    EXPECT_NE(what.find("stall detected"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0: blocked in recv (peer=1, tag=0)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1: blocked in recv (peer=0, tag=0)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("queued"), std::string::npos) << what;
  }
  EXPECT_EQ(observed[0], kWatchdogOrigin);
  EXPECT_EQ(observed[1], kWatchdogOrigin);
}

TEST(WatchdogTest, FiresOnBarrierMinusOne) {
  // np-1 ranks reach the barrier; one is parked in a recv that can never
  // complete. All blocked, no progress -> watchdog.
  RunOptions opts;
  opts.watchdog_interval = milliseconds(30);
  EXPECT_THROW(run(3,
                   [](Comm& comm) {
                     if (comm.rank() == 2) {
                       comm.recv<int>(0, 77);
                     } else {
                       comm.barrier();
                     }
                   },
                   opts),
               RankAbortedError);
}

TEST(WatchdogTest, IgnoresExitedRanks) {
  // Rank 0 exits immediately; rank 1 deadlocks on it. "All blocked or
  // exited" must still count as a stall.
  RunOptions opts;
  opts.watchdog_interval = milliseconds(30);
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 1) comm.recv<int>(0, 5);
                   },
                   opts),
               RankAbortedError);
}

TEST(WatchdogTest, DoesNotFireOnAProgressingRun) {
  RunOptions opts;
  opts.watchdog_interval = milliseconds(50);
  // A pipeline that keeps making progress across several sampling
  // intervals must not trip the watchdog: every block entry bumps the
  // rank's epoch, so "slow but moving" never reads as stalled.
  run(2,
      [](Comm& comm) {
        for (int i = 0; i < 20; ++i) {
          if (comm.rank() == 0) {
            comm.send(1, i, std::vector<int>{i});
          } else {
            EXPECT_EQ(comm.recv<int>(0, i).at(0), i);
          }
          std::this_thread::sleep_for(milliseconds(5));
          comm.barrier();
        }
      },
      opts);
}

}  // namespace
}  // namespace parda::comm

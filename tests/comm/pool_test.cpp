#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "comm/fault.hpp"
#include "comm/worker_pool.hpp"
#include "util/check.hpp"

namespace parda::comm {
namespace {

// A small send-and-sum body used to check that a job on the pool behaves
// exactly like comm::run: every rank contributes its rank+1, rank 0 sums.
std::uint64_t gather_sum(WorkerPool& pool, int np) {
  std::uint64_t sum = 0;
  pool.run_job(np, [&](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send(0, 3, std::vector<std::uint64_t>{
                          static_cast<std::uint64_t>(comm.rank()) + 1});
      return;
    }
    sum = 1;
    for (int r = 1; r < comm.size(); ++r) {
      sum += comm.recv<std::uint64_t>(r, 3).at(0);
    }
  });
  return sum;
}

TEST(WorkerPoolTest, RunJobMatchesRun) {
  WorkerPool pool;
  for (int np : {1, 2, 4}) {
    EXPECT_EQ(gather_sum(pool, np),
              static_cast<std::uint64_t>(np) * (np + 1) / 2);
  }
}

TEST(WorkerPoolTest, RunStatsShapeMatchesTransientRun) {
  WorkerPool pool;
  const RunStats stats = pool.run_job(3, [](Comm& comm) {
    comm.barrier();
  });
  EXPECT_EQ(stats.ranks.size(), 3u);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(WorkerPoolTest, WorldsAreCachedAndReset) {
  WorkerPool pool;
  for (int i = 0; i < 5; ++i) {
    // Leave queued-but-unreceived state behind on purpose: rank 1 sends a
    // message nobody receives. The reset must drain it so iteration i+1
    // cannot observe iteration i's mailbox contents.
    pool.run_job(2, [&](Comm& comm) {
      if (comm.rank() == 1) {
        comm.send(0, 9, std::vector<std::uint64_t>{static_cast<std::uint64_t>(i)});
      }
      comm.barrier();
    });
  }
  EXPECT_EQ(pool.worlds_created(), 1u);
  EXPECT_EQ(pool.world_reuses(), 4u);
  EXPECT_EQ(pool.jobs_run(), 5u);
  // A fresh receive sees only the new job's message.
  pool.run_job(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      comm.send(0, 9, std::vector<std::uint64_t>{42});
    } else {
      const auto got = comm.recv<std::uint64_t>(1, 9);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], 42u);
    }
  });
}

TEST(WorkerPoolTest, CapacityGrowsToLargestNpAndSticks) {
  WorkerPool pool;
  EXPECT_EQ(pool.capacity(), 0);
  pool.run_job(2, [](Comm&) {});
  EXPECT_EQ(pool.capacity(), 2);
  pool.run_job(4, [](Comm&) {});
  EXPECT_EQ(pool.capacity(), 4);
  pool.run_job(1, [](Comm&) {});  // never shrinks
  EXPECT_EQ(pool.capacity(), 4);
  EXPECT_EQ(pool.worlds_created(), 3u);  // one World per distinct np
}

TEST(WorkerPoolTest, AbortFailsTheJobAndLeavesThePoolReusable) {
  WorkerPool pool;
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        pool.run_job(3, [](Comm& comm) {
          if (comm.rank() == 1) throw std::runtime_error("rank 1 body threw");
          // The other ranks block; rank 1's abort must wake them.
          comm.recv<std::uint64_t>(kAnySource, 5);
        }),
        std::runtime_error);
    // The very next job on the same (poisoned, then reset) World succeeds.
    EXPECT_EQ(gather_sum(pool, 3), 6u);
  }
}

TEST(WorkerPoolTest, InjectedFaultRethrowsRootCause) {
  const FaultPlan plan = FaultPlan::parse("rank=1,op=recv,n=0");
  RunOptions options;
  options.fault_plan = &plan;
  WorkerPool pool;
  EXPECT_THROW(pool.run_job(2,
                            [](Comm& comm) {
                              if (comm.rank() == 0) {
                                comm.send(1, 2, std::vector<int>{1});
                                comm.recv<int>(1, 3);
                              } else {
                                comm.recv<int>(0, 2);
                                comm.send(0, 3, std::vector<int>{2});
                              }
                            },
                            options),
               FaultInjectedError);
  // Healthy afterwards, with the same World.
  EXPECT_EQ(gather_sum(pool, 2), 3u);
  EXPECT_GE(pool.world_reuses(), 1u);
}

TEST(WorkerPoolTest, PoolWatchdogAbortsAStalledJob) {
  RunOptions options;
  options.watchdog_interval = std::chrono::milliseconds(20);
  WorkerPool pool;
  try {
    pool.run_job(2,
                 [](Comm& comm) {
                   // Handcrafted recv cycle: both ranks wait forever.
                   comm.recv<std::uint64_t>(1 - comm.rank(), 0);
                 },
                 options);
    FAIL() << "expected RankAbortedError";
  } catch (const RankAbortedError& e) {
    EXPECT_EQ(e.origin_rank(), kWatchdogOrigin);
  }
  // The service thread must have retired the episode: the next watchdogged
  // job runs (and completes) on the same pool.
  const RunStats stats = pool.run_job(2, [](Comm& comm) { comm.barrier(); },
                                      options);
  EXPECT_EQ(stats.ranks.size(), 2u);
}

TEST(WorkerPoolTest, ConcurrentSubmittersSerializeFifo) {
  WorkerPool pool;
  pool.run_job(2, [](Comm&) {});  // pre-spawn
  constexpr int kSubmitters = 4;
  constexpr int kJobsEach = 8;
  std::atomic<int> running{0};
  std::atomic<int> max_running{0};
  std::vector<std::uint64_t> sums(kSubmitters, 0);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int j = 0; j < kJobsEach; ++j) {
        pool.run_job(2, [&](Comm& comm) {
          if (comm.rank() == 0) {
            // Exactly one job may be inside the pool at a time.
            const int now = running.fetch_add(1) + 1;
            int seen = max_running.load();
            while (now > seen &&
                   !max_running.compare_exchange_weak(seen, now)) {
            }
            sums[static_cast<std::size_t>(s)] += 1;
            running.fetch_sub(1);
          }
          comm.barrier();
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(max_running.load(), 1);
  for (const std::uint64_t sum : sums) EXPECT_EQ(sum, kJobsEach);
  EXPECT_EQ(pool.jobs_run(),
            static_cast<std::uint64_t>(kSubmitters) * kJobsEach + 1);
}

TEST(WorkerPoolTest, WorldThatFailsToBuildLeavesThePoolUsable) {
  // A ring below the shm segment's minimum, set directly so parse() cannot
  // reject it: building the World throws. The pool must still release the
  // job's admission ticket, or the next job and ~WorkerPool wait forever.
  // The scenario runs on its own thread so a leaked ticket fails within
  // seconds instead of at the test timeout.
  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::thread scenario([&finished] {
    {
      WorkerPool pool;
      RunOptions options;
      options.transport.kind = TransportKind::kShm;
      options.transport.ring_bytes = 128;
      EXPECT_THROW(pool.run_job(2, [](Comm&) {}, options), CheckError);
      EXPECT_EQ(gather_sum(pool, 2), 3u);
    }
    finished.set_value();
  });
  if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    std::fprintf(stderr,
                 "FAILED: run_job or ~WorkerPool still blocked after 10 s; "
                 "the failed job kept its admission ticket\n");
    std::_Exit(1);
  }
  scenario.join();
}

TEST(WorkerPoolTest, BackCompatRunStillWorks) {
  // comm::run is now a wrapper over a transient pool; the contract is
  // byte-identical for callers.
  int calls = 0;
  const RunStats stats = run(2, [&](Comm& comm) {
    if (comm.rank() == 0) ++calls;
    comm.barrier();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.ranks.size(), 2u);
}

}  // namespace
}  // namespace parda::comm

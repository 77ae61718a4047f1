#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "comm/comm.hpp"

namespace parda::comm {
namespace {

TEST(CommTest, SingleRankRuns) {
  int calls = 0;
  const RunStats stats = run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.ranks.size(), 1u);
}

TEST(CommTest, PingPong) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, std::vector<std::uint64_t>{1, 2, 3});
      const auto back = comm.recv<std::uint64_t>(1, 8);
      ASSERT_EQ(back.size(), 3u);
      EXPECT_EQ(back[0], 2u);
      EXPECT_EQ(back[2], 4u);
    } else {
      auto data = comm.recv<std::uint64_t>(0, 7);
      for (auto& x : data) ++x;
      comm.send(0, 8, std::move(data));
    }
  });
}

TEST(CommTest, EmptyMessage) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<std::uint64_t>{});
    } else {
      EXPECT_TRUE(comm.recv<std::uint64_t>(0, 1).empty());
    }
  });
}

TEST(CommTest, TagMatchingOutOfOrder) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, /*tag=*/1, std::vector<int>{10});
      comm.send(1, /*tag=*/2, std::vector<int>{20});
    } else {
      // Receive tag 2 first even though tag 1 arrived first.
      EXPECT_EQ(comm.recv<int>(0, 2).at(0), 20);
      EXPECT_EQ(comm.recv<int>(0, 1).at(0), 10);
    }
  });
}

TEST(CommTest, FifoPerSourceAndTag) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 100; ++i) comm.send(1, 5, std::vector<int>{i});
    } else {
      for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(comm.recv<int>(0, 5).at(0), i);
      }
    }
  });
}

TEST(CommTest, WildcardSource) {
  run(3, [](Comm& comm) {
    if (comm.rank() == 0) {
      bool seen1 = false;
      bool seen2 = false;
      for (int i = 0; i < 2; ++i) {
        int src = -2;
        const auto v = comm.recv<int>(kAnySource, 9, &src);
        EXPECT_EQ(v.at(0), src * 100);
        seen1 |= src == 1;
        seen2 |= src == 2;
      }
      EXPECT_TRUE(seen1);
      EXPECT_TRUE(seen2);
    } else {
      comm.send(0, 9, std::vector<int>{comm.rank() * 100});
    }
  });
}

TEST(CommTest, WildcardRecvIsFifoByArrival) {
  // Arrival order is forced with barriers: rank 2's message is in the
  // mailbox strictly before rank 1's. A wildcard recv must hand them out
  // in arrival order even though they live in different source buckets.
  run(3, [](Comm& comm) {
    if (comm.rank() == 2) comm.send(0, 9, std::vector<int>{200});
    comm.barrier();
    if (comm.rank() == 1) comm.send(0, 9, std::vector<int>{100});
    comm.barrier();
    if (comm.rank() == 0) {
      int src = -2;
      EXPECT_EQ(comm.recv<int>(kAnySource, 9, &src).at(0), 200);
      EXPECT_EQ(src, 2);
      EXPECT_EQ(comm.recv<int>(kAnySource, 9, &src).at(0), 100);
      EXPECT_EQ(src, 1);
    }
  });
}

TEST(CommTest, WildcardSkipsNonMatchingTags) {
  // An earlier-arrived message with the wrong tag must not be returned by
  // a wildcard recv, and must still be receivable afterwards.
  run(3, [](Comm& comm) {
    if (comm.rank() == 1) comm.send(0, /*tag=*/5, std::vector<int>{55});
    comm.barrier();
    if (comm.rank() == 2) comm.send(0, /*tag=*/6, std::vector<int>{66});
    comm.barrier();
    if (comm.rank() == 0) {
      int src = -2;
      EXPECT_EQ(comm.recv<int>(kAnySource, 6, &src).at(0), 66);
      EXPECT_EQ(src, 2);
      EXPECT_EQ(comm.recv<int>(kAnySource, 5, &src).at(0), 55);
      EXPECT_EQ(src, 1);
    }
  });
}

TEST(CommTest, SelfSendThroughCollectives) {
  // broadcast where the root is also a receiver of its own data, across
  // every root position.
  const int np = 4;
  for (int root = 0; root < np; ++root) {
    run(np, [root](Comm& comm) {
      std::vector<int> data;
      if (comm.rank() == root) data = {root, -root};
      data = comm.broadcast(std::move(data), root, 50);
      EXPECT_EQ(data, (std::vector<int>{root, -root}));
    });
  }
}

TEST(CommTest, BarrierSynchronizes) {
  std::atomic<int> before{0};
  std::atomic<int> after_ok{0};
  run(4, [&](Comm& comm) {
    (void)comm;
    before.fetch_add(1);
    comm.barrier();
    if (before.load() == 4) after_ok.fetch_add(1);
  });
  EXPECT_EQ(after_ok.load(), 4);
}

TEST(CommTest, RepeatedBarriers) {
  std::atomic<int> counter{0};
  run(3, [&](Comm& comm) {
    for (int round = 0; round < 50; ++round) {
      comm.barrier();
      counter.fetch_add(1);
      comm.barrier();
      EXPECT_EQ(counter.load() % 3, 0) << "round " << round;
    }
  });
}

TEST(CommTest, BroadcastReachesEveryone) {
  run(5, [](Comm& comm) {
    std::vector<int> data;
    if (comm.rank() == 3) data = {42, 43};
    data = comm.broadcast(std::move(data), 3, 12);
    ASSERT_EQ(data.size(), 2u);
    EXPECT_EQ(data[0], 42);
    EXPECT_EQ(data[1], 43);
  });
}

TEST(CommTest, ExceptionPropagates) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 1) {
                       throw std::runtime_error("rank 1 exploded");
                     }
                   }),
               std::runtime_error);
}

TEST(CommTest, StatsCountMessagesAndBytes) {
  const RunStats stats = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<std::uint64_t>(10, 0));
    } else {
      comm.recv<std::uint64_t>(0, 1);
    }
  });
  EXPECT_EQ(stats.total_messages(), 1u);
  EXPECT_EQ(stats.total_bytes(), 80u);
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.max_busy(), 0.0);
  EXPECT_LE(stats.max_busy(), stats.total_busy() + 1e-9);
}

TEST(CommTest, ManyRanksPipelineStress) {
  // Chain: rank i sends to i-1, mirroring Parda's infinity pipeline.
  const int np = 8;
  run(np, [np](Comm& comm) {
    const int r = comm.rank();
    for (int round = 0; round < 20; ++round) {
      if (r < np - 1) {
        const auto incoming = comm.recv<std::uint64_t>(r + 1, 21);
        EXPECT_EQ(incoming.at(0),
                  static_cast<std::uint64_t>(r + 1 + round * 1000));
      }
      if (r > 0) {
        comm.send(r - 1, 21,
                  std::vector<std::uint64_t>{
                      static_cast<std::uint64_t>(r + round * 1000)});
      }
    }
  });
}

}  // namespace
}  // namespace parda::comm

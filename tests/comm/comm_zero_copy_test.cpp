// Tests for the zero-copy data-movement layer: move-in/move-out sends,
// in-place view receives, shared-block collectives, and the
// bytes_copied / bytes_shared accounting that proves no byte was touched.
// Pointer identity across rank threads is observable because the runtime
// is thread-backed: a moved or shared buffer keeps its address.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "comm/comm.hpp"

namespace parda::comm {
namespace {

TEST(CommZeroCopyTest, MoveSendRecvPreservesStorage) {
  std::atomic<const void*> sent{nullptr};
  std::atomic<const void*> received{nullptr};
  const RunStats stats = run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::uint64_t> data(1000, 7);
      sent.store(data.data());
      comm.send(1, 1, std::move(data));
    } else {
      const std::vector<std::uint64_t> got = comm.recv<std::uint64_t>(0, 1);
      ASSERT_EQ(got.size(), 1000u);
      EXPECT_EQ(got[0], 7u);
      received.store(got.data());
    }
  });
  // The receiver's vector is the sender's vector, moved — not a copy.
  EXPECT_EQ(sent.load(), received.load());
  EXPECT_EQ(stats.total_bytes_copied(), 0u);
  EXPECT_EQ(stats.total_bytes_shared(), 8000u);
  EXPECT_EQ(stats.total_bytes(), 8000u);
}

TEST(CommZeroCopyTest, CopySendIsCountedAsCopied) {
  const RunStats stats = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<std::uint32_t>(20, 3));
    } else {
      // A different element type cannot take the moved storage back out.
      const auto got = comm.recv<std::uint64_t>(0, 1);
      ASSERT_EQ(got.size(), 10u);
      EXPECT_EQ(got[0], (std::uint64_t{3} << 32) | 3u);
    }
  });
  // The send is a move; the receive pays exactly one copy-out.
  EXPECT_EQ(stats.total_bytes_copied(), 80u);
  EXPECT_EQ(stats.total_bytes_shared(), 80u);
  EXPECT_EQ(stats.total_bytes(), 80u);
}

TEST(CommZeroCopyTest, RecvViewAliasesMovedBuffer) {
  std::atomic<const void*> sent{nullptr};
  std::atomic<const void*> viewed{nullptr};
  const RunStats stats = run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::uint64_t> data(512);
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = i;
      sent.store(data.data());
      comm.send(1, 4, std::move(data));
    } else {
      const View<std::uint64_t> v = comm.recv_view<std::uint64_t>(0, 4);
      ASSERT_EQ(v.size(), 512u);
      EXPECT_EQ(v[17], 17u);
      viewed.store(v.data());
    }
  });
  EXPECT_EQ(sent.load(), viewed.load());
  EXPECT_EQ(stats.total_bytes_copied(), 0u);
}

TEST(CommZeroCopyTest, ScattervViewSlicesOneBlock) {
  constexpr int kNp = 4;
  std::atomic<const std::uint64_t*> base{nullptr};
  std::atomic<int> aliased{0};
  const RunStats stats = run(kNp, [&](Comm& comm) {
    std::vector<std::uint64_t> block;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> slices;
    if (comm.rank() == 1) {
      block.resize(100);
      for (std::size_t i = 0; i < block.size(); ++i) block[i] = i;
      base.store(block.data());
      // Ragged slices incl. the root's own and an empty one for rank 3.
      slices = {{0, 10}, {10, 50}, {60, 40}, {100, 0}};
    }
    const View<std::uint64_t> mine = comm.scatterv_view(
        std::move(block),
        std::span<const std::pair<std::uint64_t, std::uint64_t>>(slices), 1,
        30);
    switch (comm.rank()) {
      case 0:
        ASSERT_EQ(mine.size(), 10u);
        EXPECT_EQ(mine[9], 9u);
        break;
      case 1:  // self-scatter: the root's slice of its own block
        ASSERT_EQ(mine.size(), 50u);
        EXPECT_EQ(mine[0], 10u);
        break;
      case 2:
        ASSERT_EQ(mine.size(), 40u);
        EXPECT_EQ(mine[39], 99u);
        break;
      default:
        EXPECT_TRUE(mine.empty());
    }
    if (!mine.empty() && mine.data() == base.load() + mine[0]) {
      aliased.fetch_add(1);
    }
  });
  EXPECT_EQ(aliased.load(), 3);  // every non-empty slice aliases the block
  EXPECT_EQ(stats.total_bytes_copied(), 0u);
  EXPECT_EQ(stats.total_bytes_shared(), 100u * 8u - 50u * 8u);
}

TEST(CommZeroCopyTest, ZeroLengthPayloads) {
  run(3, [](Comm& comm) {
    // Move-send of an empty vector.
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<std::uint64_t>{});
    } else if (comm.rank() == 1) {
      EXPECT_TRUE(comm.recv<std::uint64_t>(0, 1).empty());
    }
    // scatterv_view where every slice is empty.
    std::vector<std::uint64_t> block;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> slices;
    if (comm.rank() == 0) slices = {{0, 0}, {0, 0}, {0, 0}};
    const View<std::uint64_t> s = comm.scatterv_view(
        std::move(block),
        std::span<const std::pair<std::uint64_t, std::uint64_t>>(slices), 0,
        3);
    EXPECT_TRUE(s.empty());
  });
}

TEST(CommZeroCopyTest, SingleRankCollectivesSelfDeliver) {
  run(1, [](Comm& comm) {
    const auto b = comm.broadcast(std::vector<int>{5, 6}, 0, 1);
    EXPECT_EQ(b, (std::vector<int>{5, 6}));
    std::vector<std::pair<std::uint64_t, std::uint64_t>> slices{{1, 2}};
    const View<int> sv = comm.scatterv_view(
        std::vector<int>{9, 10, 11},
        std::span<const std::pair<std::uint64_t, std::uint64_t>>(slices), 0,
        3);
    ASSERT_EQ(sv.size(), 2u);
    EXPECT_EQ(sv[0], 10);
  });
}

TEST(CommZeroCopyTest, ViewKeepsBlockAliveAfterRootMovesOn) {
  // The root drops its handle immediately; receivers' views must keep the
  // refcounted block alive (lifetime is the refcount, not the root).
  run(4, [](Comm& comm) {
    std::vector<std::uint64_t> block;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> slices;
    if (comm.rank() == 0) {
      block.assign(400, 42);
      slices = {{0, 100}, {100, 100}, {200, 100}, {300, 100}};
    }
    View<std::uint64_t> mine = comm.scatterv_view(
        std::move(block),
        std::span<const std::pair<std::uint64_t, std::uint64_t>>(slices), 0,
        5);
    if (comm.rank() == 0) mine = View<std::uint64_t>{};  // root lets go
    comm.barrier();  // everyone else reads after the root dropped its view
    if (comm.rank() != 0) {
      ASSERT_EQ(mine.size(), 100u);
      for (std::uint64_t x : mine.span()) EXPECT_EQ(x, 42u);
    }
  });
}

TEST(CommZeroCopyTest, BroadcastStillReturnsOwnedVectors) {
  // The vector-returning broadcast on top of the shared transport.
  const RunStats stats = run(8, [](Comm& comm) {
    std::vector<std::uint64_t> data;
    if (comm.rank() == 3) data.assign(1 << 12, 9);
    data = comm.broadcast(std::move(data), 3, 21);
    ASSERT_EQ(data.size(), std::size_t{1} << 12);
    EXPECT_EQ(data.front(), 9u);
    data[0] = static_cast<std::uint64_t>(comm.rank());  // owned: mutable
  });
  // Transport is shared; each rank pays at most one materializing copy,
  // so total copies stay below np * payload (the old cost was a copy per
  // hop on top of that).
  constexpr std::uint64_t kPayload = (std::uint64_t{1} << 12) * 8;
  EXPECT_LE(stats.total_bytes_copied(), 8 * kPayload);
  EXPECT_GE(stats.total_bytes_shared(), 7 * kPayload);
}

}  // namespace
}  // namespace parda::comm

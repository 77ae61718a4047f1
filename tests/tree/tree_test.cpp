// Typed tests run every order-statistic engine against the same contract,
// plus randomized cross-checks against the sorted-vector oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "reference/avl_tree.hpp"
#include "reference/splay_tree.hpp"
#include "reference/treap.hpp"
#include "reference/vector_tree.hpp"
#include "tree/fenwick.hpp"
#include "tree/order_stat_tree.hpp"
#include "util/prng.hpp"

namespace parda {
namespace {

template <typename T>
class OrderStatTreeTest : public ::testing::Test {
 protected:
  T tree_;
};

using Engines = ::testing::Types<SplayTree, AvlTree, Treap, VectorTree>;
TYPED_TEST_SUITE(OrderStatTreeTest, Engines);

TYPED_TEST(OrderStatTreeTest, EmptyTree) {
  EXPECT_EQ(this->tree_.size(), 0u);
  EXPECT_TRUE(this->tree_.empty());
  EXPECT_EQ(this->tree_.count_greater(0), 0u);
  EXPECT_EQ(this->tree_.count_greater(100), 0u);
  EXPECT_FALSE(this->tree_.erase(5));
  EXPECT_TRUE(this->tree_.validate());
}

TYPED_TEST(OrderStatTreeTest, SingleElement) {
  this->tree_.insert(10, 0xAA);
  EXPECT_EQ(this->tree_.size(), 1u);
  EXPECT_EQ(this->tree_.count_greater(9), 1u);
  EXPECT_EQ(this->tree_.count_greater(10), 0u);
  EXPECT_EQ(this->tree_.count_greater(11), 0u);
  EXPECT_EQ(this->tree_.oldest(), (TreeEntry{10, 0xAA}));
  EXPECT_TRUE(this->tree_.validate());
  EXPECT_TRUE(this->tree_.erase(10));
  EXPECT_TRUE(this->tree_.empty());
}

TYPED_TEST(OrderStatTreeTest, CountGreaterOnAbsentKeys) {
  for (Timestamp ts : {10, 20, 30, 40, 50}) this->tree_.insert(ts, ts);
  EXPECT_EQ(this->tree_.count_greater(0), 5u);
  EXPECT_EQ(this->tree_.count_greater(10), 4u);
  EXPECT_EQ(this->tree_.count_greater(15), 4u);  // between keys
  EXPECT_EQ(this->tree_.count_greater(25), 3u);
  EXPECT_EQ(this->tree_.count_greater(45), 1u);
  EXPECT_EQ(this->tree_.count_greater(50), 0u);
  EXPECT_EQ(this->tree_.count_greater(99), 0u);
  EXPECT_TRUE(this->tree_.validate());
}

TYPED_TEST(OrderStatTreeTest, AscendingInsertion) {
  for (Timestamp ts = 0; ts < 1000; ++ts) this->tree_.insert(ts, ts * 2);
  EXPECT_EQ(this->tree_.size(), 1000u);
  EXPECT_TRUE(this->tree_.validate());
  for (Timestamp ts = 0; ts < 1000; ts += 37) {
    EXPECT_EQ(this->tree_.count_greater(ts), 999u - ts);
  }
}

TYPED_TEST(OrderStatTreeTest, DescendingInsertion) {
  for (Timestamp ts = 1000; ts-- > 0;) this->tree_.insert(ts, ts);
  EXPECT_EQ(this->tree_.size(), 1000u);
  EXPECT_TRUE(this->tree_.validate());
  EXPECT_EQ(this->tree_.count_greater(499), 500u);
}

TYPED_TEST(OrderStatTreeTest, OldestAndPopOldest) {
  Xoshiro256 rng(99);
  std::vector<Timestamp> keys;
  for (int i = 0; i < 300; ++i) {
    const Timestamp ts = rng() >> 16;
    if (std::find(keys.begin(), keys.end(), ts) != keys.end()) continue;
    keys.push_back(ts);
    this->tree_.insert(ts, ts + 1);
  }
  std::sort(keys.begin(), keys.end());
  for (Timestamp expected : keys) {
    EXPECT_EQ(this->tree_.oldest().ts, expected);
    const TreeEntry popped = this->tree_.pop_oldest();
    EXPECT_EQ(popped.ts, expected);
    EXPECT_EQ(popped.addr, expected + 1);
  }
  EXPECT_TRUE(this->tree_.empty());
  EXPECT_TRUE(this->tree_.validate());
}

TYPED_TEST(OrderStatTreeTest, ForEachIsInOrder) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 500; ++i) {
    this->tree_.insert(mix64(static_cast<std::uint64_t>(i)) >> 8,
                       static_cast<Addr>(i));
  }
  std::vector<Timestamp> visited;
  this->tree_.for_each([&](TreeEntry e) { visited.push_back(e.ts); });
  EXPECT_EQ(visited.size(), 500u);
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
}

TYPED_TEST(OrderStatTreeTest, ClearResets) {
  for (Timestamp ts = 0; ts < 50; ++ts) this->tree_.insert(ts, ts);
  this->tree_.clear();
  EXPECT_TRUE(this->tree_.empty());
  EXPECT_EQ(this->tree_.count_greater(0), 0u);
  this->tree_.insert(3, 3);
  EXPECT_EQ(this->tree_.size(), 1u);
  EXPECT_TRUE(this->tree_.validate());
}

TYPED_TEST(OrderStatTreeTest, EraseMiddleKeepsWeights) {
  for (Timestamp ts = 0; ts < 100; ++ts) this->tree_.insert(ts, ts);
  for (Timestamp ts = 10; ts < 60; ts += 2) {
    EXPECT_TRUE(this->tree_.erase(ts));
  }
  EXPECT_TRUE(this->tree_.validate());
  // 94 keys exceeded 5 originally; 25 of them (10, 12, ..., 58) were erased.
  EXPECT_EQ(this->tree_.count_greater(5), 69u);
  EXPECT_EQ(this->tree_.size(), 75u);
}

TYPED_TEST(OrderStatTreeTest, RandomizedAgainstOracle) {
  TypeParam tree;
  VectorTree oracle;
  Xoshiro256 rng(31337);
  std::vector<Timestamp> live;
  for (int step = 0; step < 30000; ++step) {
    const int op = static_cast<int>(rng.below(10));
    if (op < 5 || live.empty()) {
      // Insert a fresh timestamp.
      Timestamp ts = rng() >> 20;
      while (std::find(live.begin(), live.end(), ts) != live.end()) ++ts;
      tree.insert(ts, ts ^ 0xF00D);
      oracle.insert(ts, ts ^ 0xF00D);
      live.push_back(ts);
    } else if (op < 8) {
      const std::size_t pick = rng.below(live.size());
      const Timestamp ts = live[pick];
      EXPECT_TRUE(tree.erase(ts));
      EXPECT_TRUE(oracle.erase(ts));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const Timestamp probe = rng() >> 20;
      EXPECT_EQ(tree.count_greater(probe), oracle.count_greater(probe));
    }
    EXPECT_EQ(tree.size(), oracle.size());
  }
  EXPECT_TRUE(tree.validate());
  // Final full sweep comparison.
  std::vector<TreeEntry> a;
  std::vector<TreeEntry> b;
  tree.for_each([&](TreeEntry e) { a.push_back(e); });
  oracle.for_each([&](TreeEntry e) { b.push_back(e); });
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
}

TYPED_TEST(OrderStatTreeTest, PopOldestInterleavedWithInserts) {
  // Simulates bounded-analysis LRU churn: insert ascending, evict oldest.
  for (Timestamp ts = 0; ts < 2000; ++ts) {
    this->tree_.insert(ts, ts);
    if (this->tree_.size() > 64) {
      const TreeEntry victim = this->tree_.pop_oldest();
      EXPECT_EQ(victim.ts, ts - 64);
    }
  }
  EXPECT_EQ(this->tree_.size(), 64u);
  EXPECT_TRUE(this->tree_.validate());
}

TEST(AvlTreeTest, HeightStaysLogarithmic) {
  AvlTree tree;
  for (Timestamp ts = 0; ts < (1 << 15); ++ts) tree.insert(ts, ts);
  // AVL height <= 1.44 log2(n); for n = 32768, that is ~22.
  EXPECT_LE(tree.height(), 23);
}

TEST(SplayTreeTest, WorksAfterWorstCasePattern) {
  // Ascending inserts make a splay tree a left path; make sure deep
  // operations still work (for_each and validate must not recurse).
  SplayTree tree;
  for (Timestamp ts = 0; ts < 200000; ++ts) tree.insert(ts, ts);
  EXPECT_TRUE(tree.validate());
  EXPECT_EQ(tree.count_greater(0), 199999u);
  EXPECT_EQ(tree.size(), 200000u);
}

// FenwickIndex cannot join the typed suite: its space follows the span of
// live keys, and the random cases there draw 48-bit keys. Its own contract
// is the dense clock that RankState drives it with: keys handed out in
// increasing order, blocks of older keys imported just below the oldest
// live one, and entries dying anywhere. Small windows force many window
// moves (each a linear-time rebuild of the counts) along the way.
TEST(FenwickIndexTest, DenseClockAgainstOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    FenwickIndex index;
    VectorTree oracle;
    Xoshiro256 rng(seed);
    Timestamp clock = std::uint64_t{1} << 40;
    std::vector<Timestamp> live;
    const auto check_probe = [&](Timestamp probe) {
      ASSERT_EQ(index.count_greater(probe), oracle.count_greater(probe))
          << "probe " << probe;
    };
    for (int step = 0; step < 40000; ++step) {
      const std::uint64_t op = rng.below(10000);
      if (op < 4000 || live.empty()) {  // the next tick of the clock
        index.insert(clock, clock ^ 0xA5);
        oracle.insert(clock, clock ^ 0xA5);
        live.push_back(clock++);
      } else if (op < 8000) {  // a hit or a resolved record: any entry dies
        const std::size_t pick = rng.below(live.size());
        EXPECT_TRUE(index.erase(live[pick]));
        EXPECT_TRUE(oracle.erase(live[pick]));
        EXPECT_FALSE(index.erase(live[pick]));
        live[pick] = live.back();
        live.pop_back();
      } else if (op < 9000) {  // LRU eviction
        const TreeEntry victim = index.pop_oldest();
        EXPECT_EQ(victim, oracle.pop_oldest());
        live.erase(std::find(live.begin(), live.end(), victim.ts));
      } else if (op < 9050) {  // a phase holder imports older state
        const Timestamp below = oracle.empty() ? clock : oracle.oldest().ts;
        const std::uint64_t count = rng.below(200);
        for (Timestamp key = below - count; key < below; ++key) {
          index.insert(key, key * 3);
          oracle.insert(key, key * 3);
          live.push_back(key);
        }
      } else if (op < 9052) {  // an export empties the rank
        index.clear();
        oracle.clear();
        live.clear();
      } else {
        const Timestamp lo = oracle.empty() ? clock : oracle.oldest().ts;
        check_probe(lo - 1 + rng.below(clock - lo + 3));
      }
      ASSERT_EQ(index.size(), oracle.size());
      if (!oracle.empty()) {
        ASSERT_EQ(index.oldest(), oracle.oldest());
      }
      if (step % 4096 == 0) {
        ASSERT_TRUE(index.validate());
      }
    }
    EXPECT_TRUE(index.validate());
    std::vector<TreeEntry> got;
    std::vector<TreeEntry> want;
    index.for_each([&](TreeEntry e) { got.push_back(e); });
    oracle.for_each([&](TreeEntry e) { want.push_back(e); });
    EXPECT_EQ(got, want);
  }
}

TEST(FenwickIndexTest, EmptyIndexReanchorsAtAnyKey) {
  FenwickIndex index;
  EXPECT_EQ(index.count_greater(0), 0u);
  EXPECT_FALSE(index.erase(7));
  index.insert(100, 1);
  index.insert(101, 2);
  EXPECT_EQ(index.pop_oldest(), (TreeEntry{100, 1}));
  EXPECT_TRUE(index.erase(101));
  EXPECT_TRUE(index.empty());
  // Emptied, the window follows the next key wherever it lands.
  index.insert(5, 3);
  index.insert(6, 4);
  EXPECT_EQ(index.count_greater(5), 1u);
  EXPECT_EQ(index.count_greater(4), 2u);
  EXPECT_EQ(index.oldest(), (TreeEntry{5, 3}));
  EXPECT_TRUE(index.validate());
}

}  // namespace
}  // namespace parda

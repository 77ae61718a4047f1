#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "hash/addr_map.hpp"
#include "util/prng.hpp"

namespace parda {
namespace {

TEST(AddrMapTest, EmptyMap) {
  AddrMap map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_FALSE(map.contains(42));
  EXPECT_FALSE(map.erase(42));
}

TEST(AddrMapTest, InsertFindErase) {
  AddrMap map;
  EXPECT_TRUE(map.insert_or_assign(10, 100));
  EXPECT_TRUE(map.insert_or_assign(20, 200));
  ASSERT_NE(map.find(10), nullptr);
  EXPECT_EQ(*map.find(10), 100u);
  ASSERT_NE(map.find(20), nullptr);
  EXPECT_EQ(*map.find(20), 200u);
  EXPECT_EQ(map.size(), 2u);

  EXPECT_FALSE(map.insert_or_assign(10, 111));  // overwrite, not new
  EXPECT_EQ(*map.find(10), 111u);
  EXPECT_EQ(map.size(), 2u);

  EXPECT_TRUE(map.erase(10));
  EXPECT_EQ(map.find(10), nullptr);
  EXPECT_FALSE(map.erase(10));
  EXPECT_EQ(map.size(), 1u);
}

TEST(AddrMapTest, FindReturnsMutablePointer) {
  AddrMap map;
  map.insert_or_assign(5, 50);
  *map.find(5) = 99;
  EXPECT_EQ(*map.find(5), 99u);
}

TEST(AddrMapTest, GrowthPreservesEntries) {
  AddrMap map;
  for (Addr a = 0; a < 10000; ++a) map.insert_or_assign(a, a * 3);
  EXPECT_EQ(map.size(), 10000u);
  for (Addr a = 0; a < 10000; ++a) {
    ASSERT_NE(map.find(a), nullptr) << a;
    EXPECT_EQ(*map.find(a), a * 3);
  }
}

TEST(AddrMapTest, ClearEmptiesButKeepsCapacity) {
  AddrMap map;
  for (Addr a = 0; a < 100; ++a) map.insert_or_assign(a, a);
  const std::size_t cap = map.capacity();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.find(5), nullptr);
  map.insert_or_assign(5, 7);
  EXPECT_EQ(*map.find(5), 7u);
}

TEST(AddrMapTest, ReserveAvoidsRehash) {
  AddrMap map;
  map.reserve(5000);
  const std::size_t cap = map.capacity();
  for (Addr a = 0; a < 5000; ++a) map.insert_or_assign(a, a);
  EXPECT_EQ(map.capacity(), cap);
}

TEST(AddrMapTest, ForEachVisitsEverythingOnce) {
  AddrMap map;
  for (Addr a = 100; a < 200; ++a) map.insert_or_assign(a, a + 1);
  std::unordered_map<Addr, Timestamp> seen;
  map.for_each([&](Addr a, Timestamp t) {
    EXPECT_TRUE(seen.emplace(a, t).second) << "duplicate visit " << a;
  });
  EXPECT_EQ(seen.size(), 100u);
  for (const auto& [a, t] : seen) EXPECT_EQ(t, a + 1);
}

TEST(AddrMapTest, MaxProbeLengthStaysSmall) {
  AddrMap map;
  for (Addr a = 0; a < 100000; ++a) map.insert_or_assign(a * 12345, a);
  // Robin-hood at <= 75% load keeps probe chains very short.
  EXPECT_LE(map.max_probe_length(), 32u);
}

TEST(AddrMapTest, AdversarialProbeChainSurvivesSaturation) {
  // Brute-force ~300 keys whose mix64 hashes land in one bucket of a
  // 1024-slot table. With the old 8-bit probe-distance encoding the chain
  // reached the 0xFF empty sentinel and silently corrupted the table; now
  // the dib field is wider and a chain probing past kGrowProbeLimit
  // forces an early rehash that splits the bucket.
  constexpr std::size_t kMask = 1023;
  constexpr std::size_t kBucket = 7;
  std::vector<Addr> keys;
  for (Addr k = 0; keys.size() < 300; ++k) {
    if ((static_cast<std::size_t>(mix64(k)) & kMask) == kBucket) {
      keys.push_back(k);
    }
  }
  AddrMap map;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(map.insert_or_assign(keys[i], i));
  }
  EXPECT_EQ(map.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(map.find(keys[i]), nullptr) << "key index " << i;
    EXPECT_EQ(*map.find(keys[i]), i);
  }
  // The forced growth must have split the chain well below the limit.
  EXPECT_LT(map.max_probe_length(), 255u);

  // Backward-shift deletion on the long chain: erase half, keep the rest.
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_TRUE(map.erase(keys[i]));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(map.find(keys[i]), nullptr);
    } else {
      ASSERT_NE(map.find(keys[i]), nullptr);
      EXPECT_EQ(*map.find(keys[i]), i);
    }
  }
}

TEST(AddrMapTest, RandomOpsMatchStdUnorderedMap) {
  AddrMap map;
  std::unordered_map<Addr, Timestamp> ref;
  Xoshiro256 rng(12345);
  for (int step = 0; step < 200000; ++step) {
    const Addr key = rng.below(500);  // small key space => heavy churn
    const int op = static_cast<int>(rng.below(3));
    if (op == 0) {
      const Timestamp value = rng();
      EXPECT_EQ(map.insert_or_assign(key, value),
                ref.insert_or_assign(key, value).second);
    } else if (op == 1) {
      EXPECT_EQ(map.erase(key), ref.erase(key) > 0);
    } else {
      const Timestamp* found = map.find(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, it->second);
      }
    }
    EXPECT_EQ(map.size(), ref.size());
  }
}

TEST(AddrMapTest, HandlesHugeKeys) {
  AddrMap map;
  const Addr keys[] = {0, ~0ULL, 1ULL << 63, (1ULL << 40) + 3};
  for (std::size_t i = 0; i < 4; ++i) map.insert_or_assign(keys[i], i);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_NE(map.find(keys[i]), nullptr);
    EXPECT_EQ(*map.find(keys[i]), i);
  }
}

}  // namespace
}  // namespace parda

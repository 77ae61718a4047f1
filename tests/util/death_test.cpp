// Death tests: the PARDA_CHECK guards on invalid configuration must fail
// fast and loudly rather than corrupt an analysis.
#include <gtest/gtest.h>

#include <string>

#include "cachesim/lru_cache.hpp"
#include "cachesim/set_assoc_cache.hpp"
#include "hist/histogram.hpp"
#include "trace/trace_pipe.hpp"
#include "util/check.hpp"

namespace parda {
namespace {

TEST(DeathTest, TracePipeRejectsZeroCapacity) {
  EXPECT_DEATH(TracePipe pipe(0), "PARDA_CHECK");
}

TEST(DeathTest, LruCacheRejectsZeroCapacity) {
  EXPECT_DEATH(LruCache cache(0), "PARDA_CHECK");
}

TEST(DeathTest, SetAssocRejectsNonDivisibleWays) {
  EXPECT_DEATH(SetAssocCache cache(CacheConfig{10, 3, 1}), "PARDA_CHECK");
}

TEST(DeathTest, HistogramRejectsAbsurdDistances) {
  // The underflow guard (see src/hist/histogram.cpp): a near-2^64 finite
  // distance is an upstream bug, not a growable bin.
  Histogram h;
  EXPECT_DEATH(h.record(kInfiniteDistance - 1), "PARDA_CHECK");
}

TEST(DeathTest, ChecksPrintTheFailingExpression) {
  EXPECT_DEATH(PARDA_CHECK(1 + 1 == 3), "1 \\+ 1 == 3");
}

// PARDA_CHECK_MSG is the throwing flavor: recoverable validation (user
// input, file formats, fault specs) raises CheckError instead of aborting.
TEST(CheckErrorTest, CheckMsgThrowsWithFormattedContext) {
  try {
    PARDA_CHECK_MSG(1 + 1 == 3, "np=%d is out of range [1, %d]", 9, 4);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos) << what;
    EXPECT_NE(what.find("np=9 is out of range [1, 4]"), std::string::npos)
        << what;
  }
}

TEST(CheckErrorTest, CheckMsgPassesWhenConditionHolds) {
  EXPECT_NO_THROW(PARDA_CHECK_MSG(2 + 2 == 4, "never printed"));
}

}  // namespace
}  // namespace parda

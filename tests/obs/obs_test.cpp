// Observability layer tests: runtime flag / rank attribution, counter
// sharding under concurrent writers (exercised under the TSAN preset),
// gauge and timer aggregation, span nesting and ordering, chrome-trace
// and metrics JSON schema validation, and a disabled-overhead guard.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace parda::obs {
namespace {

/// Parses JSON that the test expects to be well-formed (json::parse throws
/// JsonError otherwise, failing the test with its message).
json::Value parse_ok(const std::string& text) { return json::parse(text); }

/// Turns obs on for one test and restores the previous state afterwards,
/// so the enable flag never leaks between tests.
class ScopedEnable {
 public:
  ScopedEnable() : prev_(enabled()) { set_enabled(true); }
  ~ScopedEnable() { set_enabled(prev_); }

 private:
  bool prev_;
};

TEST(ObsRuntime, EnableFlagAndThreadRankRoundTrip) {
  EXPECT_FALSE(enabled());  // compiled in, off by default
  {
    ScopedEnable on;
    EXPECT_TRUE(enabled());
  }
  EXPECT_FALSE(enabled());

  EXPECT_EQ(thread_shard(), 0);
  EXPECT_EQ(thread_rank(), -1);
  {
    ScopedThreadRank rank(3);
    EXPECT_EQ(thread_shard(), 4);
    EXPECT_EQ(thread_rank(), 3);
    {
      ScopedThreadRank inner(0);
      EXPECT_EQ(thread_rank(), 0);
    }
    EXPECT_EQ(thread_rank(), 3);  // nesting restores the previous rank
  }
  EXPECT_EQ(thread_shard(), 0);

  // Out-of-range ranks fold into the unattributed shard.
  ScopedThreadRank bogus(kMaxRanks + 7);
  EXPECT_EQ(thread_shard(), 0);
}

TEST(ObsCounter, ShardsPerRankUnderConcurrentWriters) {
  ScopedEnable on;
  Counter c("test.counter");

  // One writer thread per rank, plus one unattributed writer, all hammering
  // the same Counter concurrently. Per-rank shards mean no write ever
  // touches another thread's cache line; TSAN verifies the claim.
  constexpr int kRanks = 4;
  constexpr std::uint64_t kAddsPerRank = 20000;
  std::vector<std::thread> writers;
  for (int r = 0; r < kRanks; ++r) {
    writers.emplace_back([&c, r] {
      ScopedThreadRank rank(r);
      for (std::uint64_t i = 0; i < kAddsPerRank; ++i) {
        c.add(static_cast<std::uint64_t>(r) + 1);
      }
    });
  }
  writers.emplace_back([&c] {  // unattributed: shard 0
    for (std::uint64_t i = 0; i < kAddsPerRank; ++i) c.increment();
  });
  for (auto& t : writers) t.join();

  const auto shards = c.shards();
  EXPECT_EQ(shards[0], kAddsPerRank);
  std::uint64_t expected_total = kAddsPerRank;
  for (int r = 0; r < kRanks; ++r) {
    const std::uint64_t want = kAddsPerRank * (static_cast<std::uint64_t>(r) + 1);
    EXPECT_EQ(shards[static_cast<std::size_t>(r) + 1], want) << "rank " << r;
    expected_total += want;
  }
  EXPECT_EQ(c.total(), expected_total);

  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(ObsCounter, DisabledAddIsDropped) {
  Counter c("test.disabled");
  ASSERT_FALSE(enabled());
  c.add(42);
  EXPECT_EQ(c.total(), 0u);

  ScopedEnable on;
  c.add(42);
  EXPECT_EQ(c.total(), 42u);
}

TEST(ObsCounter, AddForRankAttributesExplicitly) {
  ScopedEnable on;
  Counter c("test.for_rank");
  c.add_for_rank(2, 10);
  c.add_for_rank(-1, 5);           // out of range: unattributed
  c.add_for_rank(kMaxRanks, 7);    // out of range: unattributed
  const auto shards = c.shards();
  EXPECT_EQ(shards[3], 10u);
  EXPECT_EQ(shards[0], 12u);
  EXPECT_EQ(c.total(), 22u);
}

TEST(ObsGauge, TracksLastValueAndRunningMax) {
  ScopedEnable on;
  Gauge g("test.gauge");
  g.set(100);
  g.set(40);           // lower set keeps the max
  EXPECT_EQ(g.max(), 100u);
  g.set_max(250);
  g.set_max(90);
  EXPECT_EQ(g.max(), 250u);
  g.set_for_rank(1, 777);
  EXPECT_EQ(g.shards()[2], 777u);
  EXPECT_EQ(g.max(), 777u);
  g.reset();
  EXPECT_EQ(g.max(), 0u);
}

TEST(ObsTimer, AggregatesCountSumMinMaxAndLog2Buckets) {
  ScopedEnable on;
  TimerHistogram t("test.timer");
  t.record_ns(0);     // bucket 0
  t.record_ns(1);     // bucket 0 ([1,2))
  t.record_ns(3);     // bucket 1 ([2,4))
  t.record_ns(1023);  // bucket 9 ([512,1024))
  t.record_ns(1024);  // bucket 10

  const auto agg = t.aggregate();
  EXPECT_EQ(agg.count, 5u);
  EXPECT_EQ(agg.sum_ns, 0u + 1 + 3 + 1023 + 1024);
  EXPECT_EQ(agg.min_ns, 0u);
  EXPECT_EQ(agg.max_ns, 1024u);
  EXPECT_EQ(agg.buckets[0], 2u);
  EXPECT_EQ(agg.buckets[1], 1u);
  EXPECT_EQ(agg.buckets[9], 1u);
  EXPECT_EQ(agg.buckets[10], 1u);

  {
    ScopedThreadRank rank(1);
    t.record_ns(500);
  }
  EXPECT_EQ(t.shards()[2].first, 1u);
  EXPECT_EQ(t.shards()[2].second, 500u);
  EXPECT_EQ(t.aggregate().count, 6u);

  t.reset();
  const auto zero = t.aggregate();
  EXPECT_EQ(zero.count, 0u);
  EXPECT_EQ(zero.min_ns, 0u);  // min reported as 0 when empty
}

TEST(ObsRegistry, HandlesAreStableAndNamed) {
  Registry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);  // same name -> same handle
  EXPECT_EQ(a.name(), "x.count");
  EXPECT_NE(&reg.counter("y.count"), &a);

  ScopedEnable on;
  a.add(9);
  EXPECT_EQ(reg.counter_total("x.count"), 9u);
  EXPECT_EQ(reg.counter_total("never.registered"), 0u);
  reg.reset_values();
  EXPECT_EQ(reg.counter_total("x.count"), 0u);
}

TEST(ObsRegistry, SnapshotMatchesMetricsV1Schema) {
  ScopedEnable on;
  Registry reg;
  reg.counter("comm.bytes").add_for_rank(0, 100);
  reg.counter("comm.bytes").add_for_rank(2, 300);
  reg.gauge("engine.peak").set_for_rank(1, 55);
  reg.timer("wait").record_ns(2000);

  const json::Value doc = parse_ok(reg.to_json());
  EXPECT_EQ(doc.at("schema").as_string(), "parda.metrics.v1");

  const json::Value& bytes = doc.at("counters").at("comm.bytes");
  EXPECT_EQ(bytes.at("total").as_u64(), 400u);
  EXPECT_EQ(bytes.at("unattributed").as_u64(), 0u);
  const auto& per_rank = bytes.at("per_rank").array;
  ASSERT_EQ(per_rank.size(), 3u);  // trimmed after the last active rank
  EXPECT_EQ(per_rank[0].as_u64(), 100u);
  EXPECT_EQ(per_rank[1].as_u64(), 0u);
  EXPECT_EQ(per_rank[2].as_u64(), 300u);

  EXPECT_EQ(doc.at("gauges").at("engine.peak").at("max").as_u64(), 55u);

  const json::Value& wait = doc.at("timers").at("wait");
  EXPECT_EQ(wait.at("count").as_u64(), 1u);
  EXPECT_EQ(wait.at("sum_ns").as_u64(), 2000u);
  EXPECT_EQ(wait.at("max_ns").as_u64(), 2000u);
  EXPECT_DOUBLE_EQ(wait.at("mean_ns").as_double(), 2000.0);
  // 2000 ns lands in log2 bucket 10 ([1024, 2048)).
  ASSERT_EQ(wait.at("log2_ns").array.size(), 11u);
  EXPECT_EQ(wait.at("log2_ns").array[10].as_u64(), 1u);
}

TEST(ObsSpans, EventsOrderedByRankThenStartAndNestingPreserved) {
  ScopedEnable on;
  SpanTracer t(64);

  {
    ScopedThreadRank rank(1);
    t.record(100, 900, "outer", 0);
    t.record(200, 400, "inner", 0);  // nested inside [100, 900]
  }
  {
    ScopedThreadRank rank(0);
    t.record(50, 60, "scatter", 0);
  }
  t.record(10, 20, "driver-op");  // unattributed

  const auto all = t.events();
  ASSERT_EQ(all.size(), 4u);
  // Sorted by (rank, t_start): unattributed (-1) first, then rank 0, 1.
  EXPECT_EQ(all[0].rank, -1);
  EXPECT_STREQ(all[0].op, "driver-op");
  EXPECT_EQ(all[0].phase, kNoPhase);
  EXPECT_EQ(all[1].rank, 0);
  EXPECT_STREQ(all[1].op, "scatter");
  EXPECT_EQ(all[2].rank, 1);
  EXPECT_STREQ(all[2].op, "outer");
  EXPECT_STREQ(all[3].op, "inner");
  // Nesting: the inner span lies strictly within the outer one.
  EXPECT_GE(all[3].t_start_ns, all[2].t_start_ns);
  EXPECT_LE(all[3].t_end_ns, all[2].t_end_ns);

  const auto rank1 = t.events_for_rank(1);
  ASSERT_EQ(rank1.size(), 2u);
  EXPECT_STREQ(rank1[0].op, "outer");

  t.clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(ObsSpans, RingWrapCountsDroppedEvents) {
  ScopedEnable on;
  SpanTracer t(16);  // minimum capacity
  ScopedThreadRank rank(0);
  for (int i = 0; i < 21; ++i) {
    t.record(i, i + 1, "op");
  }
  EXPECT_EQ(t.dropped(), 5u);
  // The per-shard breakdown (the obs.spans_dropped counter in /metrics)
  // attributes every overwrite to the recording rank's shard.
  const auto per_shard = t.dropped_per_shard();
  EXPECT_EQ(per_shard[1], 5u);  // rank 0 records into shard 1
  EXPECT_EQ(per_shard[0], 0u);
  const auto kept = t.events();
  ASSERT_EQ(kept.size(), 16u);
  EXPECT_EQ(kept.front().t_start_ns, 5);  // oldest five were overwritten
  EXPECT_EQ(kept.back().t_start_ns, 20);
}

/// This process's resident memory in bytes, from /proc/self/statm.
std::int64_t resident_bytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return -1;
  long long size_pages = 0;
  long long resident_pages = -1;
  const int read = std::fscanf(statm, "%lld %lld", &size_pages,
                               &resident_pages);
  std::fclose(statm);
  return read == 2 ? resident_pages * sysconf(_SC_PAGESIZE) : -1;
}

TEST(ObsSpans, ShardRingsAreAllocatedByTheirFirstRecord) {
  // A run at np ranks records into np + 1 of the kShards rings. At the
  // default capacity a ring is 2^15 slots of 40 bytes, so a tracer that
  // allocated every ring up front would grow by all 65, about 81 MiB.
  ScopedEnable on;
  const std::int64_t before = resident_bytes();
  ASSERT_GE(before, 0);
  SpanTracer t;
  for (const int rank : {0, 1, 2}) {
    ScopedThreadRank scoped(rank);
    t.record(rank, rank + 1, "analyze");
  }
  const std::int64_t grown = resident_bytes() - before;
  EXPECT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_LT(grown, std::int64_t{20} << 20) << "16 rings' worth";
}

TEST(ObsSpans, SpanScopeRecordsOnlyWhileEnabled) {
  tracer().clear();
  {
    SpanScope disabled_span("should-not-appear");
  }
  {
    ScopedEnable on;
    ScopedThreadRank rank(2);
    SpanScope s("analyze", 7);
  }
  const auto all = tracer().events();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_STREQ(all[0].op, "analyze");
  EXPECT_EQ(all[0].rank, 2);
  EXPECT_EQ(all[0].phase, 7u);
  EXPECT_GE(all[0].t_end_ns, all[0].t_start_ns);
  tracer().clear();
}

TEST(ObsSpans, ChromeJsonMatchesTraceEventSchema) {
  ScopedEnable on;
  SpanTracer t(64);
  {
    ScopedThreadRank rank(0);
    t.record(1000, 3000, "scatter", 0);
    t.record(3000, 9000, "analyze", 0);
  }
  t.record(0, 500, "setup");  // unattributed -> tid kMaxRanks

  const json::Value doc = parse_ok(t.to_chrome_json());
  const auto& events = doc.at("traceEvents").array;
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");

  std::size_t complete = 0, metadata = 0;
  for (const json::Value& e : events) {
    const std::string& ph = e.at("ph").as_string();
    EXPECT_EQ(e.at("pid").as_u64(), 0u);
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
      continue;
    }
    ASSERT_EQ(ph, "X");  // complete events only
    ++complete;
    EXPECT_FALSE(e.at("name").as_string().empty());
    EXPECT_EQ(e.at("cat").as_string(), "parda");
    EXPECT_GE(e.at("dur").as_double(), 0.0);
    EXPECT_NE(e.find("ts"), nullptr);
    EXPECT_NE(e.at("args").find("rank"), nullptr);
  }
  EXPECT_EQ(complete, 3u);
  EXPECT_EQ(metadata, 2u);  // one row label per distinct tid

  // Spot-check the scatter event: ts/dur are microseconds.
  bool found_scatter = false;
  for (const json::Value& e : events) {
    if (e.at("ph").as_string() == "X" &&
        e.at("name").as_string() == "scatter") {
      found_scatter = true;
      EXPECT_DOUBLE_EQ(e.at("ts").as_double(), 1.0);
      EXPECT_DOUBLE_EQ(e.at("dur").as_double(), 2.0);
      EXPECT_EQ(e.at("tid").as_u64(), 0u);
      EXPECT_EQ(e.at("args").at("phase").as_u64(), 0u);
    }
    if (e.at("ph").as_string() == "X" &&
        e.at("name").as_string() == "setup") {
      EXPECT_EQ(e.at("tid").as_u64(),
                static_cast<std::uint64_t>(kMaxRanks));
    }
  }
  EXPECT_TRUE(found_scatter);
}

TEST(ObsOverhead, DisabledRecordingIsCheap) {
  // The <2% product guard is measured on bench_engines (see DESIGN.md);
  // this is a coarse regression tripwire: 20M disabled Counter::add calls
  // must stay far below any plausible "accidentally taking a lock" cost.
  // The bound is deliberately generous for loaded CI machines and TSAN.
  ASSERT_FALSE(enabled());
  Counter c("overhead.probe");
  WallTimer timer;
  for (std::uint64_t i = 0; i < 20'000'000; ++i) c.add(i);
  const double seconds = timer.seconds();
  EXPECT_EQ(c.total(), 0u);
  EXPECT_LT(seconds, 2.0) << "disabled-path overhead regressed";
}

}  // namespace
}  // namespace parda::obs

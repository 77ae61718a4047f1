// Failure-path tests for trace I/O and the streaming pipeline: corrupt
// trace fixtures (truncated, bad magic, bad version, count mismatch) and
// hostile bytes through both .trc readers, TracePipe poisoning from both
// sides, the analysis driver's producer protocol when either side of the
// pipe fails, and deterministic producer faults through
// parda_analyze_file_on. These run under TSAN and ASan in CI.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "core/file_analysis.hpp"
#include "core/parda.hpp"
#include "mutations.hpp"
#include "trace/source.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_pipe.hpp"
#include "util/check.hpp"

namespace parda {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void write_raw(const std::string& path, const void* data, std::size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (size > 0) {
    ASSERT_EQ(std::fwrite(data, 1, size, f), size);
  }
  std::fclose(f);
}

/// Builds a binary trace file by hand: header fields as given, then `body`
/// addresses — the knob for every corruption the reader must reject.
std::string write_fixture(const std::string& name, const char magic[8],
                          std::uint64_t version, std::uint64_t declared,
                          const std::vector<Addr>& body,
                          std::size_t truncate_body_bytes_to = SIZE_MAX) {
  std::vector<char> bytes;
  bytes.insert(bytes.end(), magic, magic + 8);
  const auto append_u64 = [&](std::uint64_t v) {
    const char* p = reinterpret_cast<const char*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(v));
  };
  append_u64(version);
  append_u64(declared);
  std::size_t body_bytes = body.size() * sizeof(Addr);
  if (truncate_body_bytes_to != SIZE_MAX) {
    body_bytes = truncate_body_bytes_to;
  }
  const char* p = reinterpret_cast<const char*>(body.data());
  bytes.insert(bytes.end(), p, p + body_bytes);
  const std::string path = temp_path(name);
  write_raw(path, bytes.data(), bytes.size());
  return path;
}

/// The trace as MmapTraceSource's one-rank view holds it; BinaryTraceReader
/// returns it through read_trace_binary.
std::vector<Addr> via_mmap(const std::string& path) {
  MmapTraceSource source(path);
  source.partition(1);
  const std::span<const Addr> view = source.rank_view(0);
  return {view.begin(), view.end()};
}

/// Both .trc readers must reject `path` with a TraceFormatError whose
/// message holds every one of `pins`.
void expect_rejected(const std::string& path,
                     std::initializer_list<const char*> pins) {
  for (const auto& [reader, read] :
       {std::pair{"BinaryTraceReader", &read_trace_binary},
        std::pair{"MmapTraceSource", &via_mmap}}) {
    try {
      read(path);
      ADD_FAILURE() << reader << " accepted " << path;
    } catch (const TraceFormatError& e) {
      for (const char* pin : pins) {
        EXPECT_NE(std::string(e.what()).find(pin), std::string::npos)
            << reader << ": " << e.what();
      }
    }
  }
}

// --- Header validation, the same in both readers. ---

TEST(TraceFormatTest, FileShorterThanMagicThrows) {
  const std::string path = temp_path("tiny.trc");
  write_raw(path, "PAR", 3);
  expect_rejected(path, {"shorter than the 8-byte magic"});
}

TEST(TraceFormatTest, BadMagicNamesByteOffsetZero) {
  const char bad_magic[8] = {'N', 'O', 'T', 'A', 'T', 'R', 'C', '!'};
  const std::string path =
      write_fixture("badmagic.trc", bad_magic, kTraceVersion, 0, {});
  expect_rejected(path, {"bad trace magic at byte offset 0"});
}

TEST(TraceFormatTest, TruncatedHeaderThrows) {
  const std::string path = temp_path("shorthdr.trc");
  write_raw(path, kTraceMagic, sizeof(kTraceMagic));  // magic only
  expect_rejected(path, {"shorter than the 24-byte header"});
}

TEST(TraceFormatTest, UnsupportedVersionNamesByteOffsetEight) {
  const std::string path =
      write_fixture("badver.trc", kTraceMagic, kTraceVersion + 41, 0, {});
  expect_rejected(path, {"unsupported trace version 42", "at byte offset 8"});
}

TEST(TraceFormatTest, DeclaredCountLargerThanBodyThrows) {
  // Header declares 10 references, body holds 5.
  const std::string path = write_fixture("truncbody.trc", kTraceMagic,
                                         kTraceVersion, 10, {1, 2, 3, 4, 5});
  expect_rejected(path, {"trace body size mismatch at byte offset 24",
                         "header declares 10 references (80 bytes)",
                         "the file holds 40 bytes (5 whole references)"});
}

TEST(TraceFormatTest, DeclaredCountSmallerThanBodyThrows) {
  const std::string path = write_fixture("extrabody.trc", kTraceMagic,
                                         kTraceVersion, 2, {1, 2, 3, 4});
  expect_rejected(path, {"trace body size mismatch"});
}

TEST(TraceFormatTest, RaggedBodyThrows) {
  // Body is not a whole number of 8-byte references.
  const std::string path = write_fixture("ragged.trc", kTraceMagic,
                                         kTraceVersion, 1, {7}, 5);
  expect_rejected(path, {"trace body size mismatch"});
}

TEST(TraceFormatTest, MissingFileThrows) {
  const std::string path = temp_path("does-not-exist.trc");
  EXPECT_THROW(read_trace_binary(path), std::runtime_error);
  EXPECT_THROW(MmapTraceSource{path}, std::runtime_error);
}

TEST(TraceFormatTest, ValidTraceStillRoundTrips) {
  std::vector<Addr> trace(1000);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i] = i * 3 + 1;
  const std::string path = temp_path("valid.trc");
  write_trace_binary(path, trace);
  BinaryTraceReader reader(path);
  EXPECT_EQ(reader.total_references(), trace.size());
  EXPECT_EQ(read_trace_binary(path), trace);
  EXPECT_EQ(via_mmap(path), trace);
}

TEST(TraceFormatTest, HostileBytesThrowOrReadBack) {
  // Every truncation, a one-byte extension and every bit flip of a
  // 100-reference trace, through both readers. The raw format has no
  // checksum: a flip in the body reads back as that flipped trace, and
  // every other mutation must throw TraceFormatError.
  std::vector<Addr> trace(100);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i] = i * 4099 + 7;
  const std::string path = temp_path("hostile.trc");
  write_trace_binary(path, trace);
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> clean{std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()};
  ASSERT_EQ(clean.size(), kTraceHeaderBytes + trace.size() * sizeof(Addr));
  for_each_mutation(clean, [&](const Mutation& m) {
    write_raw(path, m.bytes.data(), m.bytes.size());
    std::optional<std::vector<Addr>> want;
    if (m.flipped_byte && *m.flipped_byte >= kTraceHeaderBytes) {
      want = trace;
      std::memcpy(want->data(), m.bytes.data() + kTraceHeaderBytes,
                  trace.size() * sizeof(Addr));
    }
    EXPECT_TRUE(outcome([&] { return read_trace_binary(path); }, m.label) ==
                want)
        << "BinaryTraceReader, " << m.label;
    EXPECT_TRUE(outcome([&] { return via_mmap(path); }, m.label) == want)
        << "MmapTraceSource, " << m.label;
  });
}

// --- TracePipe poisoning. ---

TEST(TracePipeFaultTest, WriteAfterCloseIsACheckedError) {
  TracePipe pipe(64);
  pipe.write(std::vector<Addr>{1, 2});
  pipe.close();
  EXPECT_THROW(pipe.write(std::vector<Addr>{3}), CheckError);
  // The data queued before close is still readable.
  EXPECT_EQ(pipe.read_words(4), (std::vector<Addr>{1, 2}));
}

TEST(TracePipeFaultTest, ErrorBeatsQueuedData) {
  TracePipe pipe(64);
  pipe.write(std::vector<Addr>{1, 2, 3});
  pipe.close_with_error("producer died mid-trace");
  EXPECT_TRUE(pipe.failed());
  std::vector<Addr> block;
  try {
    pipe.read(block);
    FAIL() << "poisoned pipe delivered data";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("producer died mid-trace"),
              std::string::npos);
  }
  // Subsequent writes rethrow the stored error too.
  EXPECT_THROW(pipe.write(std::vector<Addr>{4}), std::runtime_error);
}

TEST(TracePipeFaultTest, FirstErrorWins) {
  TracePipe pipe(64);
  pipe.close_with_error("first");
  pipe.close_with_error("second");
  pipe.close();  // close after an error keeps the error
  std::vector<Addr> block;
  try {
    pipe.read(block);
    FAIL() << "expected the stored error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("first"), std::string::npos);
    EXPECT_EQ(std::string(e.what()).find("second"), std::string::npos);
  }
}

TEST(TracePipeFaultTest, PoisonWakesABlockedConsumer) {
  TracePipe pipe(64);
  std::string consumer_saw;
  std::thread consumer([&] {
    std::vector<Addr> block;
    try {
      pipe.read(block);  // blocks: nothing queued, not closed
    } catch (const std::exception& e) {
      consumer_saw = e.what();
    }
  });
  // Give the consumer time to park, then poison from the producer side.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pipe.close_with_error("instrumented program crashed");
  consumer.join();
  EXPECT_NE(consumer_saw.find("instrumented program crashed"),
            std::string::npos)
      << consumer_saw;
}

TEST(TracePipeFaultTest, PoisonWakesABlockedProducer) {
  TracePipe pipe(4);  // tiny: the producer will hit backpressure
  std::string producer_saw;
  std::thread producer([&] {
    try {
      for (Addr a = 0;; ++a) pipe.write(std::vector<Addr>{a});
    } catch (const std::exception& e) {
      producer_saw = e.what();
    }
  });
  // Let the producer fill the pipe and block, then give up as the consumer.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pipe.close_with_error("analysis aborted");
  producer.join();
  EXPECT_NE(producer_saw.find("analysis aborted"), std::string::npos)
      << producer_saw;
}

// --- Producer faults through the whole streaming analysis. ---

PardaOptions streaming_options(int np) {
  PardaOptions options;
  options.num_procs = np;
  options.chunk_words = 4096;
  // Safety net: a propagation bug fails the test instead of hanging it.
  options.run_options.op_timeout = std::chrono::milliseconds(5000);
  return options;
}

TEST(StreamProducerFaultTest, ProducerErrorIsTheRootCause) {
  // The producer fails after writing part of the trace. The ranks see
  // the poisoned pipe or a RankAbortedError; the call rethrows the
  // producer's own exception.
  PipeTraceSource source(64, [](TracePipe& pipe) {
    for (Addr a = 0; a < 1000; ++a) pipe.write(std::vector<Addr>{a % 97});
    throw std::runtime_error("producer crashed mid-trace");
  });
  try {
    parda_analyze(source, streaming_options(4));
    FAIL() << "expected the producer's error to surface";
  } catch (const comm::RankAbortedError& e) {
    FAIL() << "the root cause was lost: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "producer crashed mid-trace");
  }
}

TEST(StreamProducerFaultTest, ConsumerFaultStopsAnEndlessProducer) {
  // Rank 1 fails at its first receive while the producer writes an
  // endless stream into a 64-word pipe, so the producer ends up blocked on
  // a full pipe. The driver must poison the pipe to wake it, join it and
  // rethrow the injected fault.
  const comm::FaultPlan plan = comm::FaultPlan::parse("rank=1,op=recv,n=0");
  PardaOptions options = streaming_options(2);
  options.run_options.fault_plan = &plan;
  PipeTraceSource source(64, [](TracePipe& pipe) {
    for (Addr a = 0;; ++a) pipe.write(std::vector<Addr>{a % 97});
  });
  EXPECT_THROW(parda_analyze(source, options), comm::FaultInjectedError);
}

TEST(StreamProducerFaultTest, ConsumerFaultWakesRankZero) {
  // Rank 1 fails at its first receive while rank 0 waits on the pipe for
  // its first phase: the producer writes one word per ms for 3 s, far
  // short of np*C. The World abort cannot wake a rank blocked on the pipe,
  // so the failing rank must poison it; the call then throws at once, not
  // when the producer finishes.
  const comm::FaultPlan plan = comm::FaultPlan::parse("rank=1,op=recv,n=0");
  PardaOptions options = streaming_options(2);
  options.run_options.fault_plan = &plan;
  PipeTraceSource source(1 << 20, [](TracePipe& pipe) {
    for (Addr a = 0; a < 3000; ++a) {
      pipe.write(std::vector<Addr>{a});
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(parda_analyze(source, options), comm::FaultInjectedError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

TEST(AnalyzeFileFaultTest, ProducerFaultPlanStopsTheRunCleanly) {
  std::vector<Addr> trace(200000);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i] = i % 997;
  const std::string path = temp_path("prodfault.trc");
  write_trace_binary(path, trace);

  const comm::FaultPlan plan =
      comm::FaultPlan::parse("op=producer,after_words=100000");
  PardaOptions options = streaming_options(2);
  options.run_options.fault_plan = &plan;

  comm::WorkerPool pool(options.num_procs);
  try {
    parda_analyze_file_on(pool, path, options, /*pipe_words=*/1 << 14);
    FAIL() << "expected the injected producer fault to surface";
  } catch (const comm::FaultInjectedError& e) {
    EXPECT_NE(std::string(e.what()).find("after 100000 words"),
              std::string::npos)
        << e.what();
  }
}

TEST(AnalyzeFileFaultTest, CorruptTraceSurfacesAsTraceFormatError) {
  const std::string path = write_fixture("analyze-trunc.trc", kTraceMagic,
                                         kTraceVersion, 100, {1, 2, 3});
  comm::WorkerPool pool(2);
  EXPECT_THROW(parda_analyze_file_on(pool, path, streaming_options(2)),
               TraceFormatError);
}

TEST(AnalyzeFileFaultTest, CleanRunMatchesInMemoryAnalysis) {
  std::vector<Addr> trace(20000);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i] = (i * 7) % 501;
  const std::string path = temp_path("clean.trc");
  write_trace_binary(path, trace);

  comm::WorkerPool pool(4);
  const PardaResult streamed = parda_analyze_file_on(
      pool, path, streaming_options(4), /*pipe_words=*/1 << 14);
  const PardaResult in_memory = parda_analyze(trace, streaming_options(4));
  EXPECT_EQ(streamed.hist.total(), in_memory.hist.total());
  EXPECT_EQ(streamed.hist.infinities(), in_memory.hist.infinities());
  EXPECT_EQ(streamed.hist.max_distance(), in_memory.hist.max_distance());
}

}  // namespace
}  // namespace parda

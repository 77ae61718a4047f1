#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "../util/number_tokens.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_pipe.hpp"
#include "trz_v1_writer.hpp"
#include "util/prng.hpp"

namespace parda {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

long file_size(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

TEST(TracePipeTest, SingleBlockRoundTrip) {
  TracePipe pipe(1024);
  pipe.write(std::vector<Addr>{1, 2, 3});
  pipe.close();
  std::vector<Addr> block;
  ASSERT_TRUE(pipe.read(block));
  EXPECT_EQ(block, (std::vector<Addr>{1, 2, 3}));
  EXPECT_FALSE(pipe.read(block));
}

TEST(TracePipeTest, EmptyWriteIsNoOp) {
  TracePipe pipe(16);
  pipe.write(std::vector<Addr>{});
  pipe.close();
  std::vector<Addr> block;
  EXPECT_FALSE(pipe.read(block));
  EXPECT_EQ(pipe.words_written(), 0u);
}

TEST(TracePipeTest, ReadWordsConcatenatesBlocks) {
  TracePipe pipe(1024);
  pipe.write(std::vector<Addr>{1, 2});
  pipe.write(std::vector<Addr>{3, 4, 5});
  pipe.close();
  EXPECT_EQ(pipe.read_words(4), (std::vector<Addr>{1, 2, 3, 4}));
  EXPECT_EQ(pipe.read_words(4), (std::vector<Addr>{5}));
  EXPECT_TRUE(pipe.read_words(4).empty());
}

TEST(TracePipeTest, ReadWordsSplitsLargeBlock) {
  TracePipe pipe(1024);
  std::vector<Addr> big(100);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i;
  pipe.write(big);
  pipe.close();
  std::vector<Addr> all;
  while (true) {
    const auto part = pipe.read_words(7);
    if (part.empty()) break;
    all.insert(all.end(), part.begin(), part.end());
  }
  EXPECT_EQ(all, big);
}

TEST(TracePipeTest, BackpressureBlocksProducer) {
  TracePipe pipe(8);  // tiny capacity
  std::vector<Addr> produced;
  std::thread producer([&] {
    for (Addr a = 0; a < 1000; ++a) {
      pipe.write(std::vector<Addr>{a});
      produced.push_back(a);
    }
    pipe.close();
  });
  std::vector<Addr> consumed;
  while (true) {
    const auto part = pipe.read_words(3);
    if (part.empty()) break;
    consumed.insert(consumed.end(), part.begin(), part.end());
  }
  producer.join();
  ASSERT_EQ(consumed.size(), 1000u);
  for (Addr a = 0; a < 1000; ++a) EXPECT_EQ(consumed[a], a);
  EXPECT_EQ(pipe.words_written(), 1000u);
}

TEST(TracePipeTest, OversizedBlockStillPasses) {
  TracePipe pipe(4);
  std::thread producer([&] {
    pipe.write(std::vector<Addr>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    pipe.close();
  });
  const auto all = pipe.read_words(100);
  producer.join();
  EXPECT_EQ(all.size(), 10u);
}

TEST(TraceIoTest, BinaryRoundTrip) {
  Xoshiro256 rng(1);
  std::vector<Addr> trace(10000);
  for (Addr& a : trace) a = rng();
  const std::string path = temp_path("roundtrip.trc");
  write_trace_binary(path, trace);
  EXPECT_EQ(read_trace_binary(path), trace);
  std::remove(path.c_str());
}

TEST(TraceIoTest, BinaryEmptyTrace) {
  const std::string path = temp_path("empty.trc");
  write_trace_binary(path, std::vector<Addr>{});
  EXPECT_TRUE(read_trace_binary(path).empty());
  std::remove(path.c_str());
}

TEST(TraceIoTest, TextRoundTrip) {
  const std::vector<Addr> trace{0, 42, ~0ULL, 7};
  const std::string path = temp_path("roundtrip.txt");
  write_trace_text(path, trace);
  EXPECT_EQ(read_trace_text(path), trace);
  std::remove(path.c_str());
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

/// The TraceFormatError message of reading `text` as a .txt trace, or ""
/// when it reads.
std::string text_trace_error(const std::string& text) {
  const std::string path = temp_path("lines.txt");
  write_file(path, text);
  std::string what;
  try {
    read_trace_text(path);
  } catch (const TraceFormatError& e) {
    what = e.what();
  }
  std::remove(path.c_str());
  return what;
}

TEST(TraceIoTest, TextReadsDecimalHexAndLongLines) {
  const std::string path = temp_path("lines.txt");
  write_file(path, "# comment\n1\n\n 0x10 \r\n007\n  # indented note\n" +
                       std::string(300, '0') + "7\n0123\n123");
  EXPECT_EQ(read_trace_text(path), (std::vector<Addr>{1, 16, 7, 7, 123, 123}));
  std::remove(path.c_str());
}

TEST(TraceIoTest, TextRejectsMalformedLinesAtTheirOffset) {
  // A 23-digit number and a 300-character line used to wrap and split.
  const std::string what = text_trace_error(
      "1\n2x\n-1\n12345678901234567890123\n" + std::string(299, '0') + "7\n");
  EXPECT_NE(what.find("line 2 at byte offset 2:"), std::string::npos) << what;
  // Bare hex without 0x used to read each line as its leading digits.
  EXPECT_NE(text_trace_error("7fff0000\n7fff0008\n7fff0000\n")
                .find("line 1 at byte offset 0:"),
            std::string::npos);
  for (const std::string& token : test::hostile_integer_tokens()) {
    const std::string error = text_trace_error("5\n" + token + "\n");
    // Lines are trimmed and blank lines skipped.
    EXPECT_EQ(error.empty(), test::whitespace_or_empty(token))
        << "'" << token << "'";
    if (!error.empty()) {
      EXPECT_NE(error.find("line 2 at byte offset 2:"), std::string::npos)
          << error;
    }
  }
}

TEST(TraceIoTest, StreamingReaderChunks) {
  std::vector<Addr> trace(5000);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i] = i * 3;
  const std::string path = temp_path("stream.trc");
  write_trace_binary(path, trace);

  BinaryTraceReader reader(path);
  EXPECT_EQ(reader.total_references(), 5000u);
  std::vector<Addr> all;
  while (true) {
    const auto part = reader.read_words(777);
    if (part.empty()) break;
    all.insert(all.end(), part.begin(), part.end());
  }
  EXPECT_EQ(all, trace);
  std::remove(path.c_str());
}

TEST(TraceIoTest, RejectsGarbageFile) {
  const std::string path = temp_path("garbage.trc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a trace file at all", f);
  std::fclose(f);
  EXPECT_THROW(read_trace_binary(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceCompressTest, RoundTripRandom) {
  Xoshiro256 rng(9);
  std::vector<Addr> trace(20000);
  for (Addr& a : trace) a = rng();
  const std::string path = temp_path("random.trz");
  write_trace_chunked(path, trace, 4096);
  EXPECT_EQ(read_trace_compressed(path), trace);
  std::remove(path.c_str());
}

TEST(TraceCompressTest, SequentialTraceCompressesToOneBytePerRef) {
  std::vector<Addr> trace(10000);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i] = 4096 + i;
  const std::string path = temp_path("sequential.trz");
  write_trace_chunked(path, trace);  // one chunk
  EXPECT_EQ(read_trace_compressed(path), trace);
  // The base sits in the index; every later delta is +1, one varint byte.
  EXPECT_EQ(file_size(path),
            static_cast<long>(kTrzV2HeaderBytes + kTrzIndexEntryBytes +
                              trace.size() - 1));
  std::remove(path.c_str());
}

TEST(TraceCompressTest, FileRoundTrip) {
  Xoshiro256 rng(11);
  std::vector<Addr> trace(5000);
  Addr walk = 1 << 20;
  for (Addr& a : trace) {
    walk += rng.below(64);
    a = walk;
  }
  // A legacy v1 archive still reads back.
  const std::string path = temp_path("roundtrip.trz");
  write_trz_v1(path, trace);
  EXPECT_EQ(read_trace_compressed(path), trace);
  // Ascending small deltas: far below 8 bytes per reference.
  EXPECT_LT(file_size(path), static_cast<long>(trace.size() * 3));
  std::remove(path.c_str());
}

TEST(TraceCompressTest, RejectsWrongMagic) {
  const std::string path = temp_path("wrong_magic.trz");
  write_trace_binary(path, std::vector<Addr>{1, 2, 3});  // .trc layout
  EXPECT_THROW(read_trace_compressed(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(read_trace_binary(temp_path("does_not_exist.trc")),
               std::runtime_error);
  EXPECT_THROW(read_trace_text(temp_path("does_not_exist.txt")),
               std::runtime_error);
}

}  // namespace
}  // namespace parda

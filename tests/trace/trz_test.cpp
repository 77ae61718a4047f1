// The .trz corruption and truncation matrix: every structural invariant of
// the chunked v2 layout (and the hardened v1 reader) must fail as a typed
// TraceFormatError naming the byte offset — never a crash, a hang, or a
// silently short trace. Tests mutate real archives byte-by-byte, fixing up
// CRCs with the exposed trz_crc32 when the corruption is supposed to get
// past the checksum and hit a deeper check.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mutations.hpp"
#include "trace/source.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "trz_v1_writer.hpp"
#include "util/prng.hpp"

namespace parda {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t off,
             std::uint64_t v) {
  ASSERT_LE(off + 8, bytes.size());
  std::memcpy(bytes.data() + off, &v, sizeof(v));
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& bytes,
                      std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}

/// The writer's chunk checksum: CRC over the 8 LE base bytes, continued
/// over the payload. Re-derived here so corruption tests can re-seal an
/// index entry after editing the payload it describes.
std::uint32_t chunk_crc(std::uint64_t base,
                        std::span<const std::uint8_t> payload) {
  std::uint8_t base_le[8];
  std::memcpy(base_le, &base, sizeof(base_le));
  return trz_crc32(payload, trz_crc32({base_le, sizeof(base_le)}));
}

std::vector<Addr> walk_trace(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Addr> trace(n);
  Addr walk = 1 << 20;
  for (Addr& a : trace) {
    walk += rng.below(1 << 16);  // multi-byte varints, deterministic
    a = walk;
  }
  return trace;
}

/// Writes `trace` as a chunked archive and returns its raw bytes alongside
/// the path, ready for surgical corruption.
struct Archive {
  std::string path;
  std::vector<std::uint8_t> bytes;
};

Archive make_v2(const std::string& name, const std::vector<Addr>& trace,
                std::uint64_t chunk_refs) {
  Archive a;
  a.path = temp_path(name);
  write_trace_chunked(a.path, trace, chunk_refs);
  a.bytes = slurp(a.path);
  return a;
}

void expect_format_error(const std::string& path,
                         const std::string& what_substr) {
  try {
    read_trace_compressed(path);
    FAIL() << "expected TraceFormatError (" << what_substr << ")";
  } catch (const TraceFormatError& e) {
    EXPECT_NE(std::string(e.what()).find(what_substr), std::string::npos)
        << "actual: " << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << "actual: " << e.what();
  }
}

// --- v2 round trips ---------------------------------------------------------

TEST(TrzChunkedTest, RoundTripAcrossChunkBoundaries) {
  // Sizes straddling the chunk boundary: 0, 1, k-1, k, k+1, several chunks
  // with a short tail.
  const std::uint64_t k = 64;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{1000}}) {
    const std::vector<Addr> trace = walk_trace(n, 7 + n);
    const std::string path = temp_path("rt_" + std::to_string(n) + ".trz");
    write_trace_chunked(path, trace, k);
    EXPECT_EQ(read_trace_compressed(path), trace) << "n=" << n;
    std::remove(path.c_str());
  }
}

TEST(TrzChunkedTest, RoundTripExtremeAddresses) {
  const std::vector<Addr> trace{0, ~0ULL, 0, 1ULL << 63, 42, 1, ~0ULL - 1};
  const std::string path = temp_path("rt_extreme.trz");
  write_trace_chunked(path, trace, 3);
  EXPECT_EQ(read_trace_compressed(path), trace);

  // Neighbours up to 2^64 - 1 apart: the deltas wrap mod 2^64 and keep the
  // zigzag bytes of their two's-complement values: -1, INT64_MIN + 1 and
  // INT64_MIN + 42, after the base 0 in the index.
  const std::vector<Addr> head{0, ~0ULL, 1ULL << 63, 42};
  const Archive a = make_v2("rt_extreme_head.trz", head, head.size());
  const std::vector<std::uint8_t> expected{
      0x01, 0xFD, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
      0x01, 0xAB, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  const std::size_t payload_at = kTrzV2HeaderBytes + kTrzIndexEntryBytes;
  EXPECT_EQ(get_u64(a.bytes, kTrzV2HeaderBytes), 0u);  // the base
  EXPECT_EQ(std::vector<std::uint8_t>(a.bytes.begin() + payload_at,
                                      a.bytes.end()),
            expected);
  EXPECT_EQ(read_trace_compressed(a.path), head);
  std::remove(path.c_str());
  std::remove(a.path.c_str());
}

TEST(TrzV1CodingTest, RoundTripExtremeAddresses) {
  // Neighbours up to 2^64 - 1 apart: the deltas wrap mod 2^64.
  const std::vector<Addr> trace{0, ~0ULL, 0, 1ULL << 63, 42, 1, ~0ULL - 1};
  const std::string path = temp_path("rt_extreme_v1.trz");
  write_trz_v1(path, trace);
  EXPECT_EQ(read_trace_compressed(path), trace);
  std::remove(path.c_str());
}

TEST(TrzChunkedTest, IndexDescribesChunks) {
  const std::uint64_t k = 100;
  const std::vector<Addr> trace = walk_trace(250, 3);
  const Archive a = make_v2("index.trz", trace, k);
  ChunkedTrzFile file(a.path);
  EXPECT_EQ(file.total_references(), trace.size());
  EXPECT_EQ(file.chunk_refs(), k);
  ASSERT_EQ(file.num_chunks(), 3u);
  EXPECT_EQ(file.chunk(0).refs, 100u);
  EXPECT_EQ(file.chunk(1).refs, 100u);
  EXPECT_EQ(file.chunk(2).refs, 50u);  // short tail
  EXPECT_EQ(file.chunk(0).base, trace[0]);
  EXPECT_EQ(file.chunk(1).base, trace[100]);
  EXPECT_EQ(file.chunk(2).base, trace[200]);
  std::remove(a.path.c_str());
}

TEST(TrzChunkedTest, ChunksDecodeIndependently) {
  const std::uint64_t k = 100;
  const std::vector<Addr> trace = walk_trace(250, 4);
  const Archive a = make_v2("seek.trz", trace, k);
  ChunkedTrzFile file(a.path);
  // Decode only the middle chunk — no serial scan from the front.
  std::vector<Addr> middle;
  file.decode_chunk(1, middle);
  EXPECT_EQ(middle, std::vector<Addr>(trace.begin() + 100,
                                      trace.begin() + 200));
  // decode_chunk appends: a second chunk lands after the first.
  file.decode_chunk(2, middle);
  ASSERT_EQ(middle.size(), 150u);
  EXPECT_EQ(middle.back(), trace.back());
  std::remove(a.path.c_str());
}

TEST(TrzChunkedTest, EmptyTraceIsHeaderOnly) {
  const Archive a = make_v2("empty.trz", {}, 1 << 10);
  EXPECT_EQ(a.bytes.size(), kTrzV2HeaderBytes);
  EXPECT_TRUE(read_trace_compressed(a.path).empty());
  ChunkedTrzFile file(a.path);
  EXPECT_EQ(file.num_chunks(), 0u);
  std::remove(a.path.c_str());
}

// --- v2 corruption matrix ---------------------------------------------------
// One fixture archive, one mutation per test, one typed error per mutation.

class TrzCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = walk_trace(250, 5);
    arch_ = make_v2("corrupt.trz", trace_, 100);
  }
  void TearDown() override { std::remove(arch_.path.c_str()); }

  /// Rewrites the archive with `bytes` and expects the typed failure.
  void expect_corrupt(const std::vector<std::uint8_t>& bytes,
                      const std::string& what_substr) {
    spit(arch_.path, bytes);
    expect_format_error(arch_.path, what_substr);
  }

  std::vector<Addr> trace_;
  Archive arch_;
};

TEST_F(TrzCorruptionTest, FileShorterThanMagic) {
  expect_corrupt({'P', 'A', 'R'}, "shorter than the 8-byte magic");
}

TEST_F(TrzCorruptionTest, BadMagic) {
  auto bytes = arch_.bytes;
  bytes[0] = 'X';
  expect_corrupt(bytes, "bad trz magic");
}

TEST_F(TrzCorruptionTest, TruncatedVersionField) {
  auto bytes = arch_.bytes;
  bytes.resize(12);
  expect_corrupt(bytes, "shorter than its version field");
}

TEST_F(TrzCorruptionTest, UnsupportedVersion) {
  auto bytes = arch_.bytes;
  put_u64(bytes, 8, 3);
  expect_corrupt(bytes, "unsupported trz version 3");
}

TEST_F(TrzCorruptionTest, TruncatedV2Header) {
  auto bytes = arch_.bytes;
  bytes.resize(kTrzV2HeaderBytes - 1);
  expect_corrupt(bytes, "shorter than the 40-byte v2 header");
}

TEST_F(TrzCorruptionTest, ZeroRefsPerChunk) {
  auto bytes = arch_.bytes;
  put_u64(bytes, 24, 0);
  expect_corrupt(bytes, "zero refs-per-chunk");
}

TEST_F(TrzCorruptionTest, ChunkCountMismatch) {
  auto bytes = arch_.bytes;
  put_u64(bytes, 32, get_u64(bytes, 32) + 1);
  expect_corrupt(bytes, "chunk count mismatch");
}

TEST_F(TrzCorruptionTest, IndexTruncated) {
  auto bytes = arch_.bytes;
  // Cut the file inside the chunk index (3 chunks × 24 bytes of index).
  bytes.resize(kTrzV2HeaderBytes + kTrzIndexEntryBytes + 4);
  expect_corrupt(bytes, "chunk index extends past the end of the file");
}

TEST_F(TrzCorruptionTest, CrcFieldHighBitsSet) {
  auto bytes = arch_.bytes;
  const std::size_t crc_off = kTrzV2HeaderBytes + 16;  // chunk 0's crc slot
  put_u64(bytes, crc_off, get_u64(bytes, crc_off) | (1ULL << 40));
  expect_corrupt(bytes, "corrupt crc field in chunk 0");
}

TEST_F(TrzCorruptionTest, PayloadLengthOutsideVarintEnvelope) {
  auto bytes = arch_.bytes;
  // 100 refs = 99 varints of 1..10 bytes; 10000 declared bytes cannot be a
  // well-formed delta stream no matter what they contain.
  put_u64(bytes, kTrzV2HeaderBytes + 8, 10000);
  expect_corrupt(bytes, "declares 10000 payload bytes for 100 references");
}

TEST_F(TrzCorruptionTest, PayloadTruncatedAtEndOfFile) {
  auto bytes = arch_.bytes;
  bytes.resize(bytes.size() - 5);
  expect_corrupt(bytes, "payload extends past the end of the file");
}

TEST_F(TrzCorruptionTest, TrailingBytesAfterPayload) {
  auto bytes = arch_.bytes;
  bytes.push_back(0);
  expect_corrupt(bytes, "trailing bytes after the last chunk payload");
}

TEST_F(TrzCorruptionTest, PayloadBitFlipFailsCrc) {
  auto bytes = arch_.bytes;
  ChunkedTrzFile file(arch_.path);  // locate chunk 1's payload
  bytes[static_cast<std::size_t>(file.chunk(1).payload_offset) + 3] ^= 0x01;
  expect_corrupt(bytes, "chunk 1 crc mismatch");
}

TEST_F(TrzCorruptionTest, BaseAddressCorruptionFailsCrc) {
  // The CRC seeds from the base's LE bytes, so index corruption of the
  // base (which never transits the payload) is still caught.
  auto bytes = arch_.bytes;
  put_u64(bytes, kTrzV2HeaderBytes, get_u64(bytes, kTrzV2HeaderBytes) ^ 1);
  expect_corrupt(bytes, "chunk 0 crc mismatch");
}

TEST_F(TrzCorruptionTest, ResealedExtraPayloadByteIsLeftOver) {
  // An attacker (or bitrot with a recomputed checksum) can pass the CRC;
  // the decoder still demands the payload decode to exactly refs-1 deltas.
  auto bytes = arch_.bytes;
  ChunkedTrzFile file(arch_.path);
  const TrzChunk last = file.chunk(2);
  bytes.push_back(0x00);  // one extra 1-byte varint at the file tail
  const std::size_t entry = static_cast<std::size_t>(
      kTrzV2HeaderBytes + 2 * kTrzIndexEntryBytes);
  put_u64(bytes, entry + 8, last.payload_bytes + 1);
  put_u64(bytes, entry + 16,
          chunk_crc(last.base,
                    {bytes.data() + last.payload_offset,
                     static_cast<std::size_t>(last.payload_bytes) + 1}));
  expect_corrupt(bytes, "payload bytes left over");
}

TEST_F(TrzCorruptionTest, ResealedTruncatedPayloadExhausts) {
  auto bytes = arch_.bytes;
  ChunkedTrzFile file(arch_.path);
  const TrzChunk last = file.chunk(2);
  bytes.pop_back();  // drop the final payload byte, then re-seal
  const std::size_t entry = static_cast<std::size_t>(
      kTrzV2HeaderBytes + 2 * kTrzIndexEntryBytes);
  put_u64(bytes, entry + 8, last.payload_bytes - 1);
  put_u64(bytes, entry + 16,
          chunk_crc(last.base,
                    {bytes.data() + last.payload_offset,
                     static_cast<std::size_t>(last.payload_bytes) - 1}));
  expect_corrupt(bytes, "truncated payload");
}

TEST_F(TrzCorruptionTest, ResealedVarintOverrun) {
  // A delta whose continuation bits never clear within 10 bytes: passes
  // the envelope and the CRC (re-sealed), dies as a typed overrun.
  const std::vector<Addr> two = {42, 43};
  const Archive small = make_v2("overrun.trz", two, 16);
  auto bytes = small.bytes;
  const auto old_payload = get_u64(bytes, kTrzV2HeaderBytes + 8);
  bytes.resize(bytes.size() - static_cast<std::size_t>(old_payload));
  const std::vector<std::uint8_t> evil(10, 0x80);  // 10 continuation bytes
  bytes.insert(bytes.end(), evil.begin(), evil.end());
  put_u64(bytes, kTrzV2HeaderBytes + 8, evil.size());
  put_u64(bytes, kTrzV2HeaderBytes + 16, chunk_crc(42, evil));
  spit(small.path, bytes);
  expect_format_error(small.path, "varint overrun");
  std::remove(small.path.c_str());
}

TEST_F(TrzCorruptionTest, V1ArchiveRejectedByChunkedReaderWithUpgradeHint) {
  const std::string v1 = temp_path("still_v1.trz");
  write_trz_v1(v1, trace_);
  EXPECT_EQ(read_trace_compressed(v1), trace_);  // plain reader: fine
  try {
    ChunkedTrzFile file(v1);
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("`trace_tool convert in.trz out.trz`"),
              std::string::npos)
        << "actual: " << e.what();
  }
  std::remove(v1.c_str());
}

// --- v1 hardening -----------------------------------------------------------

class TrzV1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = walk_trace(300, 6);
    path_ = temp_path("v1.trz");
    write_trz_v1(path_, trace_);
    bytes_ = slurp(path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<Addr> trace_;
  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(TrzV1Test, TruncatedV1Header) {
  auto bytes = bytes_;
  bytes.resize(kTrzV1HeaderBytes - 1);
  spit(path_, bytes);
  expect_format_error(path_, "shorter than the 32-byte v1 header");
}

TEST_F(TrzV1Test, PayloadShorterThanDeclared) {
  auto bytes = bytes_;
  bytes.resize(bytes.size() - 3);
  spit(path_, bytes);
  expect_format_error(path_, "trz payload truncated");
}

TEST_F(TrzV1Test, TrailingBytesAfterPayload) {
  auto bytes = bytes_;
  bytes.push_back(0);
  spit(path_, bytes);
  expect_format_error(path_, "trailing bytes after the declared trz payload");
}

TEST_F(TrzV1Test, CountLargerThanPayloadDecodes) {
  auto bytes = bytes_;
  put_u64(bytes, 16, trace_.size() + 1);
  spit(path_, bytes);
  expect_format_error(path_, "payload exhausted");
}

TEST_F(TrzV1Test, CountSmallerThanPayloadLeavesBytesOver) {
  auto bytes = bytes_;
  put_u64(bytes, 16, trace_.size() - 1);
  spit(path_, bytes);
  expect_format_error(path_, "payload bytes left over");
}

TEST_F(TrzV1Test, CountBeyondThePayloadIsRejectedBeforeDecoding) {
  // Every delta takes at least one payload byte, so these counts cannot
  // decode. They must fail as the typed error before they size an
  // allocation, which would throw bad_alloc or length_error instead.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 32, std::uint64_t{1} << 40,
        std::uint64_t{1} << 63}) {
    auto bytes = bytes_;
    put_u64(bytes, 16, count);
    spit(path_, bytes);
    expect_format_error(path_, "count/payload mismatch");
    expect_format_error(path_, "at byte offset 16");
  }
}

TEST(TrzHostileBytesTest, V1ThrowsOrReadsTheSameLength) {
  // Every truncation, a one-byte extension and every bit flip of a
  // 100-reference v1 archive. v1 has no checksum: a payload flip may
  // decode to another trace of the same length, and every other mutation
  // must throw TraceFormatError.
  const std::vector<Addr> trace = walk_trace(100, 8);
  const std::string path = temp_path("hostile_v1.trz");
  const std::vector<std::uint8_t> clean = trz_v1_bytes(trace);
  std::size_t decoded = 0;
  for_each_mutation(clean, [&](const Mutation& m) {
    spit(path, m.bytes);
    const auto got =
        outcome([&] { return read_trace_compressed(path); }, m.label);
    if (m.flipped_byte && *m.flipped_byte >= kTrzV1HeaderBytes && got) {
      EXPECT_EQ(got->size(), trace.size()) << m.label;
      ++decoded;
    } else {
      EXPECT_FALSE(got.has_value()) << m.label;
    }
  });
  EXPECT_GT(decoded, 0u);  // the sweep reached the decoder
  std::remove(path.c_str());
}

TEST(TrzHostileBytesTest, V2ThrowsOnEveryMutation) {
  // The same sweep over a 4-chunk v2 archive, through the whole-file
  // reader and through ChunkedTrzSource's rank views. The CRC covers each
  // chunk's base and payload and the header and index are cross-checked,
  // so every mutation must throw TraceFormatError.
  const std::vector<Addr> trace = walk_trace(100, 9);
  const Archive a = make_v2("hostile_v2.trz", trace, 25);
  const auto via_ranks = [&] {
    ChunkedTrzSource source(a.path);
    source.partition(2);
    std::vector<Addr> all;
    for (int r = 0; r < 2; ++r) {
      const std::span<const Addr> view = source.rank_view(r);
      all.insert(all.end(), view.begin(), view.end());
    }
    return all;
  };
  ASSERT_EQ(via_ranks(), trace);
  for_each_mutation(a.bytes, [&](const Mutation& m) {
    spit(a.path, m.bytes);
    EXPECT_FALSE(
        outcome([&] { return read_trace_compressed(a.path); }, m.label))
        << "read_trace_compressed, " << m.label;
    EXPECT_FALSE(outcome(via_ranks, m.label))
        << "ChunkedTrzSource, " << m.label;
  });
  std::remove(a.path.c_str());
}

TEST(TrzHostileBytesTest, V2CountThatWrapsTheChunkCountIsRejected) {
  // 2^64 - 1 references at 2 per chunk need 2^63 chunks, not the 0 that
  // rounding up as (count + 1) / 2 gives after the sum wraps; an empty
  // index must not pass for such a count.
  std::vector<std::uint8_t> bytes(kTrzV2HeaderBytes);
  std::memcpy(bytes.data(), kCompressedTraceMagic, 8);
  put_u64(bytes, 8, 2);
  put_u64(bytes, 16, ~std::uint64_t{0});
  put_u64(bytes, 24, 2);
  put_u64(bytes, 32, 0);
  const std::string path = temp_path("wrapping_count.trz");
  spit(path, bytes);
  expect_format_error(path, "chunk count mismatch");
  EXPECT_THROW(ChunkedTrzSource{path}, TraceFormatError);
  std::remove(path.c_str());
}

TEST_F(TrzV1Test, Crc32KnownAnswer) {
  // The IEEE check value: crc32("123456789") = 0xCBF43926. Pins the
  // polynomial and reflection so archives stay portable across builds.
  const char* s = "123456789";
  EXPECT_EQ(trz_crc32({reinterpret_cast<const std::uint8_t*>(s), 9}),
            0xCBF43926u);
  // Seed-chaining splits anywhere: crc(a+b) == crc(b, seed=crc(a)).
  const auto* p = reinterpret_cast<const std::uint8_t*>(s);
  EXPECT_EQ(trz_crc32({p + 4, 5}, trz_crc32({p, 4})), 0xCBF43926u);
}

}  // namespace
}  // namespace parda

// Delta + varint compressed trace formats (.trz).
//
// Address traces are massive (the paper's run to 100 billion references),
// and consecutive addresses are strongly correlated, so the offline format
// stores zigzag-encoded deltas in LEB128 varints: sequential sweeps cost
// ~1 byte per reference instead of 8.
//
// Two on-disk layouts share the "PARDATRZ" magic:
//
//   v1 (legacy, whole-file): magic, u64 version=1, u64 reference count,
//   u64 payload bytes, then one delta stream for the entire trace. Must be
//   decoded serially from the front. Archives on disk may still be v1, so
//   read_trace_compressed reads it (and `trace_tool convert` upgrades it),
//   but nothing writes it.
//
//   v2 (chunked, the fast path): magic, u64 version=2, u64 reference
//   count, u64 refs-per-chunk, u64 chunk count, then a seekable index of
//   one 24-byte entry per chunk {u64 base address, u64 payload bytes,
//   u64 crc32}, then the chunk payloads concatenated in order. Each chunk
//   is a self-contained delta stream seeded by its base address (the first
//   reference of the chunk), so disjoint chunk ranges decode independently
//   and in parallel — ChunkedTrzSource assigns contiguous chunk runs to
//   ranks and each rank decodes its own into a reused arena.
//
// Each layout has one parser here. Every malformed input is a typed
// parda::TraceFormatError naming the file and the byte offset (as the .trc
// readers report theirs), never a crash or a silent short read.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/mmap_file.hpp"
#include "trace/trace_io.hpp"
#include "util/types.hpp"

namespace parda {

inline constexpr char kCompressedTraceMagic[8] = {'P', 'A', 'R', 'D',
                                                  'A', 'T', 'R', 'Z'};
/// v1 header: magic + version + count + payload bytes.
inline constexpr std::uint64_t kTrzV1HeaderBytes = 32;
/// v2 header: magic + version + count + refs-per-chunk + chunk count.
inline constexpr std::uint64_t kTrzV2HeaderBytes = 40;
/// v2 index entry: base address + payload bytes + crc32 (in a u64 slot).
inline constexpr std::uint64_t kTrzIndexEntryBytes = 24;
/// Default refs-per-chunk for the chunked writer: 64Ki references ≈ one
/// rank-sized unit of decode work (64–512KB of payload).
inline constexpr std::uint64_t kDefaultTrzChunkRefs = std::uint64_t{1} << 16;

/// CRC-32 (IEEE, reflected) over `bytes`, continuing from `seed` (pass the
/// previous return value to checksum discontiguous pieces). Exposed so
/// tests can craft corrupt-but-recomputed chunk indexes.
std::uint32_t trz_crc32(std::span<const std::uint8_t> bytes,
                        std::uint32_t seed = 0) noexcept;

/// Writes the chunked v2 layout with fixed `chunk_refs` references per
/// chunk (the last chunk may be short). chunk_refs must be positive.
void write_trace_chunked(const std::string& path, std::span<const Addr> trace,
                         std::uint64_t chunk_refs = kDefaultTrzChunkRefs);

/// Reads either layout (dispatching on the header version) into memory,
/// mapping the file once.
std::vector<Addr> read_trace_compressed(const std::string& path);

/// One chunk of a v2 archive, as described by the index.
struct TrzChunk {
  Addr base = 0;                  // first reference of the chunk
  std::uint64_t refs = 0;         // references in this chunk
  std::uint64_t payload_offset = 0;  // absolute file offset of the payload
  std::uint64_t payload_bytes = 0;
  std::uint32_t crc = 0;          // crc32 over base (LE bytes) + payload
};

/// A memory-mapped chunked (v2) .trz archive: the constructor maps the
/// file and validates the header and the whole chunk index (entry sizes,
/// payload extents vs the file size, per-chunk reference counts vs the
/// declared total) up front, so decode_chunk can seek anywhere without
/// re-checking structure. A v1 file is rejected with a TraceFormatError
/// naming `trace_tool convert` as the upgrade path.
class ChunkedTrzFile {
 public:
  explicit ChunkedTrzFile(const std::string& path);
  /// Validates `map`, an archive already mapped from `path`.
  ChunkedTrzFile(const std::string& path, MappedFile map);

  ChunkedTrzFile(ChunkedTrzFile&&) noexcept = default;
  ChunkedTrzFile& operator=(ChunkedTrzFile&&) noexcept = default;

  const std::string& path() const noexcept { return path_; }
  std::uint64_t total_references() const noexcept { return total_; }
  std::uint64_t chunk_refs() const noexcept { return chunk_refs_; }
  std::size_t num_chunks() const noexcept { return chunks_.size(); }
  const TrzChunk& chunk(std::size_t i) const { return chunks_.at(i); }
  std::uint64_t file_bytes() const noexcept { return map_.size(); }

  /// Decodes chunk i, appending its references to `out` (callers reuse one
  /// arena vector across chunks and analyses). Verifies the stored CRC and
  /// the exact reference count; both failures are TraceFormatErrors with
  /// the chunk number and byte offset.
  void decode_chunk(std::size_t i, std::vector<Addr>& out) const;

 private:
  std::string path_;
  MappedFile map_;
  std::uint64_t total_ = 0;
  std::uint64_t chunk_refs_ = 0;
  std::vector<TrzChunk> chunks_;
};

}  // namespace parda

#include "trace/trace_compress.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/check.hpp"

namespace parda {

using detail::FilePtr;
using detail::format_fail;
using detail::io_fail;

namespace {

// Deltas are taken and applied on Addr, which wraps mod 2^64, and read as
// int64 only for the zigzag mapping: addresses more than 2^63 apart would
// overflow a signed subtraction.
inline std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// A varint never needs more than ceil(64/7) = 10 bytes; the index
/// validation uses this to reject payload lengths no delta stream of the
/// declared count could occupy.
constexpr std::uint64_t kMaxVarintBytes = 10;

inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Decodes exactly `count` zigzag-varint deltas from `bytes`, appending
/// the reconstructed addresses to `out`. `prev` seeds the delta chain
/// (0 for a v1 stream, the chunk base for a v2 chunk — the base itself is
/// appended by the caller). `abs_base` is the file offset of bytes[0],
/// so every failure names the exact spot. Returns the bytes consumed.
std::size_t decode_deltas(std::span<const std::uint8_t> bytes,
                          std::size_t count, Addr prev,
                          std::vector<Addr>& out, std::uint64_t abs_base,
                          const std::string& path) {
  std::size_t at = 0;
  for (std::size_t k = 0; k < count; ++k) {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (at >= bytes.size()) {
        format_fail(path, abs_base + at,
                    "count/payload mismatch: payload exhausted after " +
                        std::to_string(k) + " of " + std::to_string(count) +
                        " delta references (truncated payload)");
      }
      const std::uint8_t byte = bytes[at++];
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
      if (shift > 63) {
        format_fail(path, abs_base + at,
                    "varint overrun: delta reference " + std::to_string(k) +
                        " continues past bit 63");
      }
    }
    prev += static_cast<Addr>(zigzag_decode(v));
    out.push_back(prev);
  }
  return at;
}

/// Encodes trace[1..] as deltas seeded by trace[0] (the chunk base, which
/// the index stores verbatim), appending to `out`.
void compress_chunk_tail(std::span<const Addr> chunk,
                         std::vector<std::uint8_t>& out) {
  Addr prev = chunk.front();
  for (std::size_t i = 1; i < chunk.size(); ++i) {
    const auto delta = static_cast<std::int64_t>(chunk[i] - prev);
    put_varint(out, zigzag_encode(delta));
    prev = chunk[i];
  }
}

std::uint32_t crc_of_chunk(Addr base, std::span<const std::uint8_t> payload) {
  std::array<std::uint8_t, 8> base_le{};
  std::memcpy(base_le.data(), &base, sizeof(base));
  return trz_crc32(payload, trz_crc32(base_le));
}

/// The one .trz magic and version check: returns the archive's version,
/// 1 or 2.
std::uint64_t archive_version(const MappedFile& map,
                              const std::string& path) {
  if (map.size() < sizeof(kCompressedTraceMagic)) {
    format_fail(path, 0, "trz shorter than the 8-byte magic");
  }
  if (std::memcmp(map.data(), kCompressedTraceMagic,
                  sizeof(kCompressedTraceMagic)) != 0) {
    format_fail(path, 0, "bad trz magic");
  }
  if (map.size() < 16) {
    format_fail(path, 8, "trz shorter than its version field");
  }
  const std::uint64_t version = load_u64(map.data() + 8);
  if (version != 1 && version != 2) {
    format_fail(path, 8,
                "unsupported trz version " + std::to_string(version) +
                    " (expected 1 or 2)");
  }
  return version;
}

/// Decodes a whole mapped v1 archive (magic and version already checked).
std::vector<Addr> read_whole_v1(const MappedFile& map,
                                const std::string& path) {
  if (map.size() < kTrzV1HeaderBytes) {
    format_fail(path, map.size(), "trz shorter than the 32-byte v1 header");
  }
  const std::uint64_t count = load_u64(map.data() + 16);
  const std::uint64_t payload_bytes = load_u64(map.data() + 24);
  const std::uint64_t body = map.size() - kTrzV1HeaderBytes;
  if (payload_bytes > body) {
    format_fail(path, kTrzV1HeaderBytes,
                "trz payload truncated: header declares " +
                    std::to_string(payload_bytes) +
                    " payload bytes but the file holds " +
                    std::to_string(body));
  }
  if (payload_bytes < body) {
    format_fail(path, kTrzV1HeaderBytes + payload_bytes,
                "trailing bytes after the declared trz payload");
  }
  // Every delta takes at least one payload byte: a larger count cannot
  // decode, and must not size the reservation below.
  if (count > payload_bytes) {
    format_fail(path, 16,
                "count/payload mismatch: header declares " +
                    std::to_string(count) +
                    " references but the payload holds " +
                    std::to_string(payload_bytes) + " bytes");
  }
  std::vector<Addr> trace;
  trace.reserve(count);
  const std::span<const std::uint8_t> payload(map.data() + kTrzV1HeaderBytes,
                                              payload_bytes);
  const std::size_t used =
      decode_deltas(payload, count, 0, trace, kTrzV1HeaderBytes, path);
  if (used != payload.size()) {
    format_fail(path, kTrzV1HeaderBytes + used,
                "count/payload mismatch: " + std::to_string(count) +
                    " references decoded with " +
                    std::to_string(payload.size() - used) +
                    " payload bytes left over");
  }
  return trace;
}

}  // namespace

std::uint32_t trz_crc32(std::span<const std::uint8_t> bytes,
                        std::uint32_t seed) noexcept {
  // CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table built on
  // first use.
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void write_trace_chunked(const std::string& path, std::span<const Addr> trace,
                         std::uint64_t chunk_refs) {
  PARDA_CHECK_MSG(chunk_refs >= 1,
                  "write_trace_chunked: chunk_refs must be positive");
  const std::uint64_t count = trace.size();
  const std::uint64_t num_chunks =
      count == 0 ? 0 : (count + chunk_refs - 1) / chunk_refs;

  // One pass builds the payload stream and the index side by side.
  std::vector<std::uint8_t> payloads;
  payloads.reserve(trace.size() * 2);
  std::vector<std::uint8_t> index;
  index.reserve(static_cast<std::size_t>(num_chunks) * kTrzIndexEntryBytes);
  const auto put_u64 = [](std::vector<std::uint8_t>& out, std::uint64_t v) {
    std::uint8_t le[8];
    std::memcpy(le, &v, sizeof(v));
    out.insert(out.end(), le, le + sizeof(le));
  };
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    const std::size_t lo = static_cast<std::size_t>(c * chunk_refs);
    const std::size_t hi = static_cast<std::size_t>(
        std::min<std::uint64_t>(count, (c + 1) * chunk_refs));
    const std::span<const Addr> chunk = trace.subspan(lo, hi - lo);
    const std::size_t payload_start = payloads.size();
    compress_chunk_tail(chunk, payloads);
    const std::span<const std::uint8_t> payload(
        payloads.data() + payload_start, payloads.size() - payload_start);
    put_u64(index, chunk.front());
    put_u64(index, payload.size());
    put_u64(index, crc_of_chunk(chunk.front(), payload));
  }

  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) io_fail("cannot open trace for writing", path);
  const std::uint64_t version = 2;
  if (std::fwrite(kCompressedTraceMagic, 1, sizeof(kCompressedTraceMagic),
                  f.get()) != sizeof(kCompressedTraceMagic) ||
      std::fwrite(&version, sizeof(version), 1, f.get()) != 1 ||
      std::fwrite(&count, sizeof(count), 1, f.get()) != 1 ||
      std::fwrite(&chunk_refs, sizeof(chunk_refs), 1, f.get()) != 1 ||
      std::fwrite(&num_chunks, sizeof(num_chunks), 1, f.get()) != 1) {
    io_fail("short write on chunked trace header", path);
  }
  if (!index.empty() &&
      std::fwrite(index.data(), 1, index.size(), f.get()) != index.size()) {
    io_fail("short write on chunked trace index", path);
  }
  if (!payloads.empty() &&
      std::fwrite(payloads.data(), 1, payloads.size(), f.get()) !=
          payloads.size()) {
    io_fail("short write on chunked trace payload", path);
  }
}

std::vector<Addr> read_trace_compressed(const std::string& path) {
  MappedFile map(path);
  if (archive_version(map, path) == 1) return read_whole_v1(map, path);
  // v2: decode every chunk in order through the validated index.
  const ChunkedTrzFile file(path, std::move(map));
  std::vector<Addr> trace;
  trace.reserve(file.total_references());
  for (std::size_t c = 0; c < file.num_chunks(); ++c) {
    file.decode_chunk(c, trace);
  }
  return trace;
}

ChunkedTrzFile::ChunkedTrzFile(const std::string& path)
    : ChunkedTrzFile(path, MappedFile(path)) {}

ChunkedTrzFile::ChunkedTrzFile(const std::string& path, MappedFile map)
    : path_(path), map_(std::move(map)) {
  if (archive_version(map_, path_) == 1) {
    format_fail(path_, 8,
                "chunked ingest needs a v2 .trz archive (this file is the "
                "whole-file v1 layout; upgrade it with `trace_tool convert "
                "in.trz out.trz`)");
  }
  if (map_.size() < kTrzV2HeaderBytes) {
    format_fail(path_, map_.size(),
                "trz shorter than the 40-byte v2 header");
  }
  total_ = load_u64(map_.data() + 16);
  chunk_refs_ = load_u64(map_.data() + 24);
  const std::uint64_t num_chunks = load_u64(map_.data() + 32);
  if (chunk_refs_ == 0 && total_ != 0) {
    format_fail(path_, 24, "zero refs-per-chunk with a nonzero trace");
  }
  // Rounded up without total_ + chunk_refs_ - 1, which can wrap.
  const std::uint64_t expected_chunks =
      total_ == 0 ? 0
                  : total_ / chunk_refs_ + (total_ % chunk_refs_ != 0 ? 1 : 0);
  if (num_chunks != expected_chunks) {
    format_fail(path_, 32,
                "chunk count mismatch: header declares " +
                    std::to_string(num_chunks) + " chunks but " +
                    std::to_string(total_) + " references at " +
                    std::to_string(chunk_refs_) + " refs/chunk need " +
                    std::to_string(expected_chunks));
  }
  if (num_chunks > (map_.size() - kTrzV2HeaderBytes) / kTrzIndexEntryBytes) {
    format_fail(path_, kTrzV2HeaderBytes,
                "chunk index extends past the end of the file");
  }
  chunks_.reserve(static_cast<std::size_t>(num_chunks));
  std::uint64_t payload_at =
      kTrzV2HeaderBytes + num_chunks * kTrzIndexEntryBytes;
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    const std::uint64_t entry_off =
        kTrzV2HeaderBytes + c * kTrzIndexEntryBytes;
    const std::uint8_t* entry = map_.data() + entry_off;
    TrzChunk chunk;
    chunk.base = load_u64(entry);
    chunk.payload_bytes = load_u64(entry + 8);
    const std::uint64_t crc_word = load_u64(entry + 16);
    if (crc_word > 0xFFFFFFFFull) {
      format_fail(path_, entry_off + 16,
                  "corrupt crc field in chunk " + std::to_string(c) +
                      " (high bits set)");
    }
    chunk.crc = static_cast<std::uint32_t>(crc_word);
    chunk.refs = c + 1 < num_chunks ? chunk_refs_
                                    : total_ - (num_chunks - 1) * chunk_refs_;
    // A chunk of k references carries exactly k-1 varints of 1..10 bytes:
    // any payload length outside that envelope is structurally corrupt,
    // caught here before decode_chunk ever trusts the offset.
    const std::uint64_t min_bytes = chunk.refs - 1;
    const std::uint64_t max_bytes = (chunk.refs - 1) * kMaxVarintBytes;
    if (chunk.payload_bytes < min_bytes || chunk.payload_bytes > max_bytes) {
      format_fail(path_, entry_off + 8,
                  "chunk " + std::to_string(c) + " declares " +
                      std::to_string(chunk.payload_bytes) +
                      " payload bytes for " + std::to_string(chunk.refs) +
                      " references (expected " + std::to_string(min_bytes) +
                      ".." + std::to_string(max_bytes) + ")");
    }
    if (chunk.payload_bytes > map_.size() - payload_at) {
      format_fail(path_, payload_at,
                  "chunk " + std::to_string(c) +
                      " payload extends past the end of the file");
    }
    chunk.payload_offset = payload_at;
    payload_at += chunk.payload_bytes;
    chunks_.push_back(chunk);
  }
  if (payload_at != map_.size()) {
    format_fail(path_, payload_at,
                "trailing bytes after the last chunk payload (index "
                "accounts for " +
                    std::to_string(payload_at) + " of " +
                    std::to_string(map_.size()) + " file bytes)");
  }
}

void ChunkedTrzFile::decode_chunk(std::size_t i,
                                  std::vector<Addr>& out) const {
  const TrzChunk& c = chunk(i);
  const std::span<const std::uint8_t> payload(
      map_.data() + c.payload_offset,
      static_cast<std::size_t>(c.payload_bytes));
  const std::uint32_t computed = crc_of_chunk(c.base, payload);
  if (computed != c.crc) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "chunk %zu crc mismatch (stored 0x%08x, computed 0x%08x)",
                  i, c.crc, computed);
    format_fail(path_, c.payload_offset, msg);
  }
  out.push_back(c.base);
  const std::size_t used =
      decode_deltas(payload, static_cast<std::size_t>(c.refs - 1), c.base,
                    out, c.payload_offset, path_);
  if (used != payload.size()) {
    format_fail(path_, c.payload_offset + used,
                "count/payload mismatch in chunk " + std::to_string(i) +
                    ": " + std::to_string(c.refs) +
                    " references decoded with " +
                    std::to_string(payload.size() - used) +
                    " payload bytes left over");
  }
}

}  // namespace parda

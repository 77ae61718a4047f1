// The length-prefixed frame format shared by every serializing transport
// (see DESIGN.md "Transports"). A frame is a fixed 32-byte header followed
// by `payload_bytes` of payload:
//
//   u32 magic       'PDF2' — stream-desync tripwire; a peer speaking an
//                   older layout fails on it instead of being misread
//   u32 kind        0 = data, 1 = abort control
//   i32 src         sending rank (envelope); an abort frame's src is the
//                   rank whose failure it reports
//   i32 tag         message tag (unused by abort frames)
//   u64 generation  World generation that produced the frame; receivers
//                   drop frames from earlier generations, so leftovers of
//                   a finished job can never leak into a pooled World's
//                   next job
//   u64 payload_bytes
//
// Multi-byte fields are native-endian: both shm and the loopback/LAN tcp
// mesh connect like-endianness hosts; a cross-endian wire would version
// the magic.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace parda::comm::transport {

inline constexpr std::uint32_t kFrameMagic = 0x32464450u;  // "PDF2"

enum class FrameKind : std::uint32_t {
  kData = 0,
  kAbort = 1,
};

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t kind = 0;
  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint64_t generation = 0;
  std::uint64_t payload_bytes = 0;
};
static_assert(sizeof(FrameHeader) == 32);
static_assert(std::is_trivially_copyable_v<FrameHeader>);
// No padding: every byte of a header on the wire is a field.
static_assert(std::has_unique_object_representations_v<FrameHeader>);

/// Serializes header + payload into one contiguous buffer (the tcp send
/// path; the shm path streams header and payload separately).
inline std::vector<std::byte> encode_frame(
    const FrameHeader& header, std::span<const std::byte> payload) {
  std::vector<std::byte> out(sizeof(FrameHeader) + payload.size());
  std::memcpy(out.data(), &header, sizeof(FrameHeader));
  if (!payload.empty()) {
    std::memcpy(out.data() + sizeof(FrameHeader), payload.data(),
                payload.size());
  }
  return out;
}

/// Validates a decoded header's fixed fields. Throws CheckError on a
/// desynced or corrupt stream — the caller turns this into an abort, never
/// into silent misdelivery.
inline void check_frame_header(const FrameHeader& header,
                               std::uint64_t max_payload =
                                   std::uint64_t{1} << 40) {
  PARDA_CHECK_MSG(header.magic == kFrameMagic,
                  "transport stream desync: bad frame magic 0x%08x",
                  header.magic);
  PARDA_CHECK_MSG(header.kind <= 1u, "transport frame: unknown kind %u",
                  header.kind);
  PARDA_CHECK_MSG(header.payload_bytes <= max_payload,
                  "transport frame: implausible payload of %llu bytes",
                  static_cast<unsigned long long>(header.payload_bytes));
}

}  // namespace parda::comm::transport

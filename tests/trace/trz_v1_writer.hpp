// The legacy whole-file v1 .trz layout, written for tests. The library
// reads v1 archives, and `trace_tool convert` upgrades them to v2, but it
// writes only v2: this is the one v1 writer, for test fixtures.
//
// Layout: "PARDATRZ", u64 version 1, u64 reference count, u64 payload
// bytes, then one zigzag LEB128 varint per reference holding its delta
// from the previous reference (from 0 for the first), taken mod 2^64.
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/trace_compress.hpp"
#include "util/types.hpp"

namespace parda {

inline std::vector<std::uint8_t> trz_v1_bytes(std::span<const Addr> trace) {
  std::vector<std::uint8_t> payload;
  Addr prev = 0;
  for (const Addr a : trace) {
    const auto delta = static_cast<std::int64_t>(a - prev);
    std::uint64_t v = (static_cast<std::uint64_t>(delta) << 1) ^
                      static_cast<std::uint64_t>(delta >> 63);
    for (; v >= 0x80; v >>= 7) {
      payload.push_back(static_cast<std::uint8_t>(v) | 0x80);
    }
    payload.push_back(static_cast<std::uint8_t>(v));
    prev = a;
  }
  std::vector<std::uint8_t> bytes(std::begin(kCompressedTraceMagic),
                                  std::end(kCompressedTraceMagic));
  for (const std::uint64_t field :
       {std::uint64_t{1}, std::uint64_t{trace.size()},
        std::uint64_t{payload.size()}}) {
    std::uint8_t le[8];
    std::memcpy(le, &field, sizeof(le));
    bytes.insert(bytes.end(), le, le + sizeof(le));
  }
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

inline void write_trz_v1(const std::string& path,
                         std::span<const Addr> trace) {
  const std::vector<std::uint8_t> bytes = trz_v1_bytes(trace);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write v1 archive " + path);
}

}  // namespace parda

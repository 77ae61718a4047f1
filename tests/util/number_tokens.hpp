// Number tokens shared by the tests of every text surface that reads its
// numbers through util/parse.hpp: CLI flags, transport and fault-plan
// specs, workload specs, the assembler, JSON members, .txt traces and
// serve ingest frames. Each surface runs every hostile token through its
// own parser and expects its own rejection.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace parda::test {

/// Tokens no integer surface may accept.
inline std::vector<std::string> hostile_integer_tokens() {
  return {"",
          "-1",
          "+1",
          " 1",
          "1 ",
          "1x",
          "0x",
          "0xg",
          "18446744073709551616",  // 2^64
          "1e3",
          "1.5",
          std::string(300, '9')};
}

/// Valid integer tokens and the values they read as. Leading zeros are
/// decimal.
inline std::vector<std::pair<std::string, std::uint64_t>>
valid_integer_tokens() {
  return {{"0", 0},
          {"7", 7},
          {"007", 7},
          {"0x1F", 31},
          {"18446744073709551615", 18446744073709551615ull}};
}

/// True for the hostile tokens that surfaces which trim lines or skip
/// whitespace between tokens (.txt traces, serve text frames, JSON, the
/// assembler) see as blank or as "1" before any number is read.
inline bool whitespace_or_empty(const std::string& token) {
  return token.empty() || token.front() == ' ' || token.back() == ' ';
}

}  // namespace parda::test

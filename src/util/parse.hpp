// The one grammar for numbers in text, shared by every text input: flags,
// environment values, transport/fault-plan/workload specs, assembler
// operands, JSON members, HTTP headers, .txt traces and serve frames.
//
//   unsigned := digits | ('0x' | '0X') hexdigits    (leading zeros decimal)
//   signed   := ['-'] unsigned
//   real     := one finite std::from_chars double   (locale-free)
//
// The token is the whole text: no '+', no whitespace, no trailing bytes,
// no overflow, nothing outside the caller's range. A parser returns
// nullopt on anything else, and each caller reports it its own way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace parda {

std::optional<std::uint64_t> parse_u64(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
std::optional<std::int64_t> parse_i64(
    std::string_view text,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max());
std::optional<double> parse_f64(std::string_view text);

/// Splits at every `sep` (n separators, n + 1 parts, empty ones kept).
std::vector<std::string_view> split(std::string_view s, char sep);

/// `s` without leading and trailing spaces, tabs and '\r'.
std::string_view trim(std::string_view s) noexcept;

/// The one text-trace line reader (.txt traces and serve text frames):
/// appends one parse_u64 address per line to `out`. Lines may be any
/// length; each is trimmed, and blank and '#' lines are skipped. Returns
/// the byte offset of the first line that is none of these.
std::optional<std::size_t> read_address_lines(std::string_view text,
                                              std::vector<Addr>& out);

}  // namespace parda

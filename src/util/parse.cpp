#include "util/parse.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace parda {

std::optional<std::uint64_t> parse_u64(std::string_view text,
                                       std::uint64_t max) {
  const bool hex =
      text.size() > 1 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
  if (hex) text.remove_prefix(2);
  // Into an unsigned type from_chars reads no sign and no whitespace, and
  // it reports an empty token and overflow.
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, hex ? 16 : 10);
  if (ec != std::errc{} || ptr != end || v > max) return std::nullopt;
  return v;
}

std::optional<std::int64_t> parse_i64(std::string_view text, std::int64_t min,
                                      std::int64_t max) {
  const bool negative = !text.empty() && text[0] == '-';
  if (negative) text.remove_prefix(1);
  const std::uint64_t int64_max = std::numeric_limits<std::int64_t>::max();
  const std::optional<std::uint64_t> magnitude =
      parse_u64(text, negative ? int64_max + 1 : int64_max);
  if (!magnitude) return std::nullopt;
  // Modular conversion: 0 - 2^63 is INT64_MIN.
  const auto v =
      static_cast<std::int64_t>(negative ? 0 - *magnitude : *magnitude);
  if (v < min || v > max) return std::nullopt;
  return v;
}

std::optional<double> parse_f64(std::string_view text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) return std::nullopt;
  return v;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  for (std::size_t at = 0;;) {
    const std::size_t next = s.find(sep, at);
    parts.push_back(s.substr(at, next - at));
    if (next == std::string_view::npos) return parts;
    at = next + 1;
  }
}

std::string_view trim(std::string_view s) noexcept {
  const std::size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return {};
  return s.substr(first, s.find_last_not_of(" \t\r") + 1 - first);
}

std::optional<std::size_t> read_address_lines(std::string_view text,
                                              std::vector<Addr>& out) {
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t nl = std::min(text.find('\n', at), text.size());
    const std::string_view line = trim(text.substr(at, nl - at));
    if (!line.empty() && line[0] != '#') {
      const std::optional<std::uint64_t> a = parse_u64(line);
      if (!a) return at;
      out.push_back(*a);
    }
    at = nl + 1;
  }
  return std::nullopt;
}

}  // namespace parda

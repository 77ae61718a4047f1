// Hostile bytes for the parsers of on-disk and on-wire documents: every
// truncation, a one-byte extension and every single-bit flip of a
// well-formed input. Each sweep runs every mutation through its parser and
// accepts only the parser's own error or a result it can check.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace parda {

struct Mutation {
  std::string label;
  std::vector<std::uint8_t> bytes;
  /// The byte holding the flipped bit; nullopt for a truncation or the
  /// extension, which change the length.
  std::optional<std::size_t> flipped_byte;
};

/// Calls fn(const Mutation&) for every truncation of `clean` to a shorter
/// length, for `clean` plus one zero byte, and for every single-bit flip.
template <class Fn>
void for_each_mutation(const std::vector<std::uint8_t>& clean, Fn&& fn) {
  for (std::size_t n = 0; n < clean.size(); ++n) {
    fn(Mutation{"truncated to " + std::to_string(n) + " bytes",
                {clean.begin(), clean.begin() + static_cast<long>(n)},
                std::nullopt});
  }
  std::vector<std::uint8_t> longer = clean;
  longer.push_back(0);
  fn(Mutation{"extended by one byte", longer, std::nullopt});
  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    std::vector<std::uint8_t> flipped = clean;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    fn(Mutation{"bit " + std::to_string(bit % 8) + " of byte " +
                    std::to_string(bit / 8) + " flipped",
                std::move(flipped), bit / 8});
  }
}

}  // namespace parda

// A minimal command-line flag parser for the examples and bench harnesses.
//
// Flags take the form --name=value or --name value; bare --name sets a bool.
// Numeric values follow util/parse.hpp (an int flag: 0 to INT_MAX).
// Unrecognized flags, malformed values, and missing required values exit
// with kExitUsage and a one-line diagnostic plus the usage listing.
//
// Exit-code convention for the tools built on this parser:
//   0            success (and --help)
//   kExitRuntime a well-formed invocation that failed at runtime
//                (missing trace file, aborted analysis, ...)
//   kExitUsage   a malformed invocation (unknown flag, bad value,
//                out-of-range argument)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace parda {

inline constexpr int kExitRuntime = 1;
inline constexpr int kExitUsage = 2;

/// App-level argument validation: prints "error: <message>" (one line) to
/// stderr and exits with kExitUsage.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
[[noreturn]] void
usage_error(const char* fmt, ...);

class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Registers a flag; returns a handle whose value is filled by parse().
  /// The pointed-to default remains if the flag is absent.
  void add_flag(const std::string& name, std::string* value,
                const std::string& help);
  void add_flag(const std::string& name, std::uint64_t* value,
                const std::string& help);
  void add_flag(const std::string& name, int* value,
                const std::string& help);
  void add_flag(const std::string& name, double* value,
                const std::string& help);
  void add_flag(const std::string& name, bool* value, const std::string& help);

  /// Parses argv. On --help prints usage and exits 0; on error prints a
  /// diagnostic plus usage and exits kExitUsage. Positional arguments are
  /// collected into positionals().
  void parse(int argc, char** argv);

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// True when the named flag appeared on the command line (regardless of
  /// the value it carried). This is what lets a layered config tell "the
  /// user typed --transport=threads" apart from "the default is threads":
  /// only explicitly set flags override environment variables.
  bool was_set(const std::string& name) const;

 private:
  enum class Kind { kString, kUint, kInt, kDouble, kBool };
  struct Flag {
    std::string name;
    Kind kind;
    void* target;
    std::string help;
  };

  [[noreturn]] void usage_and_exit(int code) const;
  const Flag* find(const std::string& name) const;
  void assign(const Flag& flag, const std::string& value) const;

  std::string description_;
  std::string program_;
  std::vector<Flag> flags_;
  std::vector<std::string> positionals_;
  std::vector<std::string> set_names_;  // flags seen during parse()
};

}  // namespace parda

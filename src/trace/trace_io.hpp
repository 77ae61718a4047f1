// Trace file I/O: binary (little-endian u64 per reference, with a small
// header) and text (one address per line, '#' comments) formats for
// storing and replaying reference traces offline.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace parda {

/// Binary trace layout: 8-byte magic "PARDATRC", u64 version, u64 count,
/// then count little-endian u64 addresses.
inline constexpr char kTraceMagic[8] = {'P', 'A', 'R', 'D',
                                        'A', 'T', 'R', 'C'};
inline constexpr std::uint64_t kTraceVersion = 1;
/// Header size in bytes: magic + version + count.
inline constexpr std::uint64_t kTraceHeaderBytes = 24;

/// A malformed or truncated trace file: bad magic/version, or a declared
/// reference count that disagrees with the actual file size. The message
/// names the file, the byte offset, and the expected/actual counts.
class TraceFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

/// Throws std::runtime_error("<what>: <path>"), followed by
/// " (<strerror(err)>)" when err is nonzero: a trace file that cannot be
/// opened, mapped or written.
[[noreturn]] void io_fail(const std::string& what, const std::string& path,
                          int err = 0);

/// Throws TraceFormatError("<what> at byte offset <offset>: <path>"): the
/// malformed-input error of every trace container reader.
[[noreturn]] void format_fail(const std::string& path, std::uint64_t offset,
                              const std::string& what);

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace detail

/// The one .trc header check, shared by BinaryTraceReader and
/// MmapTraceSource. `header` holds the file's first bytes, up to
/// kTraceHeaderBytes (fewer only when the file is shorter), and
/// `file_bytes` is the file's size. Returns the declared reference count,
/// or throws a TraceFormatError naming `path` and the byte offset for a
/// short file, a bad magic or version, or a count that disagrees with the
/// body size.
std::uint64_t check_trace_header(std::span<const std::uint8_t> header,
                                 std::uint64_t file_bytes,
                                 const std::string& path);

void write_trace_binary(const std::string& path, std::span<const Addr> trace);
std::vector<Addr> read_trace_binary(const std::string& path);

void write_trace_text(const std::string& path, std::span<const Addr> trace);
/// Reads a text trace with read_address_lines (util/parse.hpp); a bad line
/// throws TraceFormatError at its byte offset, naming its line number.
std::vector<Addr> read_trace_text(const std::string& path);

/// Streaming binary reader for traces too large to hold in memory.
/// The constructor validates the header (check_trace_header); a truncated
/// or corrupt trace throws TraceFormatError up front instead of silently
/// short-reading later.
class BinaryTraceReader {
 public:
  explicit BinaryTraceReader(const std::string& path);

  std::uint64_t total_references() const noexcept { return total_; }

  /// Reads up to max_words references; empty result means end of trace.
  std::vector<Addr> read_words(std::size_t max_words);

 private:
  detail::FilePtr file_;
  std::string path_;
  std::uint64_t total_ = 0;
  std::uint64_t consumed_ = 0;
};

}  // namespace parda

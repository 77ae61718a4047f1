#include "trace/trace_io.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include <fcntl.h>  // posix_fadvise
#include <sys/stat.h>

#include "trace/mmap_file.hpp"
#include "util/parse.hpp"

namespace parda {

namespace detail {

void io_fail(const std::string& what, const std::string& path, int err) {
  std::string msg = what + ": " + path;
  if (err != 0) msg += std::string(" (") + std::strerror(err) + ")";
  throw std::runtime_error(msg);
}

void format_fail(const std::string& path, std::uint64_t offset,
                 const std::string& what) {
  throw TraceFormatError(what + " at byte offset " + std::to_string(offset) +
                         ": " + path);
}

}  // namespace detail

using detail::FilePtr;
using detail::format_fail;
using detail::io_fail;

std::uint64_t check_trace_header(std::span<const std::uint8_t> header,
                                 std::uint64_t file_bytes,
                                 const std::string& path) {
  if (header.size() < sizeof(kTraceMagic)) {
    format_fail(path, 0, "trace shorter than the 8-byte magic");
  }
  if (std::memcmp(header.data(), kTraceMagic, sizeof(kTraceMagic)) != 0) {
    format_fail(path, 0, "bad trace magic");
  }
  if (header.size() < kTraceHeaderBytes) {
    format_fail(path, header.size(), "trace shorter than the 24-byte header");
  }
  std::uint64_t version = 0;
  std::uint64_t total = 0;
  std::memcpy(&version, header.data() + 8, sizeof(version));
  std::memcpy(&total, header.data() + 16, sizeof(total));
  if (version != kTraceVersion) {
    format_fail(path, 8,
                "unsupported trace version " + std::to_string(version) +
                    " (expected " + std::to_string(kTraceVersion) + ")");
  }
  const std::uint64_t body_bytes = file_bytes - kTraceHeaderBytes;
  const std::uint64_t actual_words = body_bytes / sizeof(Addr);
  if (body_bytes % sizeof(Addr) != 0 || actual_words != total) {
    char msg[192];
    std::snprintf(msg, sizeof(msg),
                  "trace body size mismatch at byte offset %" PRIu64
                  ": header declares %" PRIu64 " references (%" PRIu64
                  " bytes) but the file holds %" PRIu64 " bytes (%" PRIu64
                  " whole references)",
                  kTraceHeaderBytes, total,
                  total * static_cast<std::uint64_t>(sizeof(Addr)),
                  body_bytes, actual_words);
    throw TraceFormatError(std::string(msg) + ": " + path);
  }
  return total;
}

void write_trace_binary(const std::string& path,
                        std::span<const Addr> trace) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) io_fail("cannot open trace for writing", path);
  const std::uint64_t version = kTraceVersion;
  const std::uint64_t count = trace.size();
  if (std::fwrite(kTraceMagic, 1, sizeof(kTraceMagic), f.get()) !=
          sizeof(kTraceMagic) ||
      std::fwrite(&version, sizeof(version), 1, f.get()) != 1 ||
      std::fwrite(&count, sizeof(count), 1, f.get()) != 1) {
    io_fail("short write on trace header", path);
  }
  if (!trace.empty() &&
      std::fwrite(trace.data(), sizeof(Addr), trace.size(), f.get()) !=
          trace.size()) {
    io_fail("short write on trace body", path);
  }
}

std::vector<Addr> read_trace_binary(const std::string& path) {
  BinaryTraceReader reader(path);
  return reader.read_words(reader.total_references());
}

void write_trace_text(const std::string& path, std::span<const Addr> trace) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) io_fail("cannot open trace for writing", path);
  std::fprintf(f.get(), "# parda text trace, %zu references\n", trace.size());
  for (Addr a : trace) std::fprintf(f.get(), "%" PRIu64 "\n", a);
}

std::vector<Addr> read_trace_text(const std::string& path) {
  const MappedFile file(path);
  const std::string_view text(reinterpret_cast<const char*>(file.data()),
                              file.size());
  std::vector<Addr> trace;
  if (const std::optional<std::size_t> bad = read_address_lines(text, trace)) {
    const auto line = std::count(text.begin(), text.begin() + *bad, '\n') + 1;
    format_fail(path, *bad,
                "malformed address on line " + std::to_string(line));
  }
  return trace;
}

BinaryTraceReader::BinaryTraceReader(const std::string& path)
    : file_(std::fopen(path.c_str(), "rb")), path_(path) {
  if (!file_) io_fail("cannot open trace for reading", path);
  // Traces are consumed front to back in large chunks: widen stdio's
  // buffer (must happen before the first read) and tell the kernel the
  // access pattern so readahead stays aggressive.
  std::setvbuf(file_.get(), nullptr, _IOFBF, std::size_t{1} << 20);
#if defined(POSIX_FADV_SEQUENTIAL)
  posix_fadvise(fileno(file_.get()), 0, 0, POSIX_FADV_SEQUENTIAL);
#endif
  struct stat st{};
  if (::fstat(fileno(file_.get()), &st) != 0) {
    io_fail("cannot stat trace", path, errno);
  }
  // Header and size validation up front: a truncated or corrupt trace must
  // be rejected here, not silently short-read during the analysis.
  std::uint8_t header[kTraceHeaderBytes];
  const std::size_t got = std::fread(header, 1, sizeof(header), file_.get());
  total_ = check_trace_header({header, got},
                              static_cast<std::uint64_t>(st.st_size), path);
}

std::vector<Addr> BinaryTraceReader::read_words(std::size_t max_words) {
  const std::uint64_t remaining = total_ - consumed_;
  const std::size_t want =
      static_cast<std::size_t>(std::min<std::uint64_t>(max_words, remaining));
  if (want == 0) return {};
  std::vector<Addr> block(want);
  const std::size_t got =
      std::fread(block.data(), sizeof(Addr), want, file_.get());
  if (got != want) {
    // The constructor validated the size, so a short read here means the
    // file shrank underneath us (or the medium failed). Name the spot.
    char msg[192];
    std::snprintf(msg, sizeof(msg),
                  "short read at byte offset %" PRIu64 ": wanted %zu "
                  "references, got %zu (%" PRIu64 " of %" PRIu64
                  " consumed): %s",
                  kTraceHeaderBytes +
                      consumed_ * static_cast<std::uint64_t>(sizeof(Addr)),
                  want, got, consumed_, total_, path_.c_str());
    throw TraceFormatError(msg);
  }
  consumed_ += got;
  return block;
}

}  // namespace parda

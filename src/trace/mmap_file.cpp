#include "trace/mmap_file.hpp"

#include <cerrno>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace/trace_io.hpp"

namespace parda {

using detail::io_fail;

MappedFile::MappedFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) io_fail("cannot open trace for mapping", path, errno);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    io_fail("cannot stat trace", path, errno);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ != 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      ::close(fd);
      io_fail("cannot mmap trace", path, errno);
    }
    data_ = static_cast<const std::uint8_t*>(map);
  }
  // The mapping pins the file contents; the descriptor is no longer needed.
  ::close(fd);
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<std::uint8_t*>(data_), size_);
    }
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void MappedFile::advise_sequential() const noexcept {
#if defined(MADV_SEQUENTIAL)
  if (data_ != nullptr) {
    ::madvise(const_cast<std::uint8_t*>(data_), size_, MADV_SEQUENTIAL);
  }
#endif
}

}  // namespace parda

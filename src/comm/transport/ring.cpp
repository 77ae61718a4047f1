#include "comm/transport/ring.hpp"

#include <fcntl.h>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "comm/transport/spec.hpp"

namespace parda::comm::transport {

namespace {

constexpr std::uint32_t kSegmentMagic = 0x53444250u;  // "PBDS"
constexpr std::size_t kAlign = 64;

constexpr std::size_t align_up(std::size_t n) {
  return (n + kAlign - 1) & ~(kAlign - 1);
}

/// Segment preamble. state flips 0 -> 1 once the creator finished
/// initializing, so attachers never observe half-built rings.
struct SegmentHeader {
  std::uint32_t magic;
  std::atomic<std::uint32_t> state;
  std::int32_t np;
  std::uint32_t pad;
  std::uint64_t ring_bytes;
};
static_assert(sizeof(SegmentHeader) <= kAlign);

long sys_futex(const void* addr, int op, std::uint32_t val,
               const timespec* timeout) {
  return ::syscall(SYS_futex, addr, op, val, timeout, nullptr, 0);
}

}  // namespace

void futex_wait(const std::atomic<std::uint32_t>* addr,
                std::uint32_t expected, std::chrono::milliseconds timeout) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  ts.tv_nsec = static_cast<long>((timeout.count() % 1000) * 1000000);
  // FUTEX_WAIT without FUTEX_PRIVATE_FLAG: the word may be shared between
  // processes through the mapped segment.
  sys_futex(addr, FUTEX_WAIT, expected, &ts);
}

void futex_wake_all(const std::atomic<std::uint32_t>* addr) {
  sys_futex(addr, FUTEX_WAKE, INT32_MAX, nullptr);
}

bool ByteRing::write(const std::byte* src, std::size_t n,
                     const std::function<bool()>& keep_waiting,
                     const std::function<void()>& notify) {
  while (n > 0) {
    const std::uint64_t head = header_->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
    const std::size_t space =
        capacity_ - static_cast<std::size_t>(head - tail);
    if (space == 0) {
      const std::uint32_t seq =
          header_->space_seq.load(std::memory_order_acquire);
      // Re-check after the snapshot: a consume between the space check and
      // the wait would otherwise be missed.
      if (header_->tail.load(std::memory_order_acquire) != tail) continue;
      if (!keep_waiting()) return false;
      futex_wait(&header_->space_seq, seq, std::chrono::milliseconds(10));
      continue;
    }
    const std::size_t chunk = space < n ? space : n;
    const std::size_t pos = static_cast<std::size_t>(head % capacity_);
    const std::size_t first = std::min(chunk, capacity_ - pos);
    std::memcpy(data_ + pos, src, first);
    if (chunk > first) std::memcpy(data_, src + first, chunk - first);
    header_->head.store(head + chunk, std::memory_order_release);
    notify();
    src += chunk;
    n -= chunk;
  }
  return true;
}

std::size_t ByteRing::read_some(std::byte* dst, std::size_t max) {
  const std::uint64_t head = header_->head.load(std::memory_order_acquire);
  const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  const std::size_t avail = static_cast<std::size_t>(head - tail);
  const std::size_t n = avail < max ? avail : max;
  if (n == 0) return 0;
  const std::size_t pos = static_cast<std::size_t>(tail % capacity_);
  const std::size_t first = std::min(n, capacity_ - pos);
  std::memcpy(dst, data_ + pos, first);
  if (n > first) std::memcpy(dst + first, data_, n - first);
  header_->tail.store(tail + n, std::memory_order_release);
  header_->space_seq.fetch_add(1, std::memory_order_release);
  futex_wake_all(&header_->space_seq);
  return n;
}

void ByteRing::clear() {
  header_->head.store(0, std::memory_order_relaxed);
  header_->tail.store(0, std::memory_order_relaxed);
  header_->space_seq.store(0, std::memory_order_relaxed);
}

std::size_t FrameReader::drain(
    const std::function<std::size_t(std::byte*, std::size_t)>& pull,
    const std::function<void(const FrameHeader&, std::vector<std::byte>&&)>&
        sink) {
  // The payload buffer grows with the bytes that arrive, at most doubling
  // each step, so a header that declares a huge payload costs memory only
  // as fast as the stream delivers it.
  constexpr std::size_t kFirstStep = std::size_t{64} << 10;
  std::size_t consumed = 0;
  for (;;) {
    if (!in_payload_) {
      std::byte* raw = reinterpret_cast<std::byte*>(&header_);
      const std::size_t got =
          pull(raw + have_, sizeof(FrameHeader) - have_);
      consumed += got;
      have_ += got;
      if (have_ < sizeof(FrameHeader)) return consumed;
      check_frame_header(header_);
      payload_.clear();
      have_ = 0;
      in_payload_ = true;
    }
    const auto declared = static_cast<std::size_t>(header_.payload_bytes);
    while (have_ < declared) {
      if (have_ == payload_.size()) {
        payload_.resize(
            std::min(declared, have_ + std::max(have_, kFirstStep)));
      }
      const std::size_t got =
          pull(payload_.data() + have_, payload_.size() - have_);
      consumed += got;
      have_ += got;
      if (got == 0) return consumed;
    }
    sink(header_, std::move(payload_));
    payload_ = {};
    have_ = 0;
    in_payload_ = false;
    if (consumed == 0) return 0;  // empty-payload frame already delivered
  }
}

void FrameReader::reset() {
  have_ = 0;
  in_payload_ = false;
  payload_ = {};
}

std::size_t ShmSegment::segment_size(int np, std::size_t ring_bytes) {
  const std::size_t rings = static_cast<std::size_t>(np) *
                            static_cast<std::size_t>(np);
  return align_up(sizeof(SegmentHeader)) +
         static_cast<std::size_t>(np + 1) * kAlign +  // doorbells, one/line
         rings * (kAlign + align_up(ring_bytes));
}

ShmSegment ShmSegment::create(int np, std::size_t ring_bytes,
                              const std::string& name) {
  PARDA_CHECK_MSG(np >= 1, "shm segment needs np >= 1, got %d", np);
  PARDA_CHECK_MSG(ring_bytes >= kMinRingBytes && ring_bytes <= kMaxRingBytes,
                  "shm ring of %zu bytes is outside [%zu, %zu]", ring_bytes,
                  kMinRingBytes, kMaxRingBytes);
  ShmSegment seg;
  seg.np_ = np;
  seg.ring_bytes_ = align_up(ring_bytes);
  seg.size_ = segment_size(np, ring_bytes);
  seg.name_ = name;
  if (name.empty()) {
    seg.base_ = ::mmap(nullptr, seg.size_, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    PARDA_CHECK_MSG(seg.base_ != MAP_FAILED, "shm segment mmap failed: %s",
                    std::strerror(errno));
  } else {
    const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    PARDA_CHECK_MSG(fd >= 0, "shm_open('%s') failed: %s", name.c_str(),
                    std::strerror(errno));
    seg.creator_ = true;
    if (::ftruncate(fd, static_cast<off_t>(seg.size_)) != 0) {
      const int err = errno;
      ::close(fd);
      ::shm_unlink(name.c_str());
      PARDA_CHECK_MSG(false, "ftruncate('%s', %zu) failed: %s", name.c_str(),
                      seg.size_, std::strerror(err));
    }
    seg.base_ = ::mmap(nullptr, seg.size_, PROT_READ | PROT_WRITE,
                       MAP_SHARED, fd, 0);
    ::close(fd);
    if (seg.base_ == MAP_FAILED) {
      seg.base_ = nullptr;
      ::shm_unlink(name.c_str());
      PARDA_CHECK_MSG(false, "shm segment mmap('%s') failed", name.c_str());
    }
  }
  std::memset(seg.base_, 0, sizeof(SegmentHeader));
  auto* header = static_cast<SegmentHeader*>(seg.base_);
  header->magic = kSegmentMagic;
  header->np = np;
  header->ring_bytes = seg.ring_bytes_;
  seg.map_layout();
  for (int s = 0; s < np; ++s) {
    for (int d = 0; d < np; ++d) seg.ring(s, d).clear();
  }
  header->state.store(1, std::memory_order_release);
  return seg;
}

ShmSegment ShmSegment::attach(const std::string& name, int np,
                              std::size_t ring_bytes) {
  PARDA_CHECK_MSG(!name.empty(), "shm attach needs a segment name");
  ShmSegment seg;
  seg.np_ = np;
  seg.ring_bytes_ = align_up(ring_bytes);
  seg.size_ = segment_size(np, ring_bytes);
  seg.name_ = name;
  int fd = -1;
  // The creator may not have run yet: retry the open, then wait for the
  // ready flag, bounded so a missing launcher fails loud instead of
  // hanging.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    fd = ::shm_open(name.c_str(), O_RDWR, 0600);
    if (fd >= 0) break;
    PARDA_CHECK_MSG(errno == ENOENT, "shm_open('%s') failed: %s",
                    name.c_str(), std::strerror(errno));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  PARDA_CHECK_MSG(fd >= 0,
                  "shm segment '%s' never appeared (is rank 0 running?)",
                  name.c_str());
  // Wait for the creator's ftruncate before mapping.
  struct stat st{};
  for (int attempt = 0; attempt < 1000; ++attempt) {
    PARDA_CHECK_MSG(::fstat(fd, &st) == 0, "fstat('%s') failed",
                    name.c_str());
    if (static_cast<std::size_t>(st.st_size) >= seg.size_) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  PARDA_CHECK_MSG(static_cast<std::size_t>(st.st_size) >= seg.size_,
                  "shm segment '%s' is %lld bytes, need %zu — geometry "
                  "mismatch (np/ring must agree across ranks)",
                  name.c_str(), static_cast<long long>(st.st_size),
                  seg.size_);
  seg.base_ = ::mmap(nullptr, seg.size_, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
  ::close(fd);
  PARDA_CHECK_MSG(seg.base_ != MAP_FAILED, "shm segment mmap('%s') failed",
                  name.c_str());
  auto* header = static_cast<SegmentHeader*>(seg.base_);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    if (header->state.load(std::memory_order_acquire) == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  PARDA_CHECK_MSG(header->state.load(std::memory_order_acquire) == 1,
                  "shm segment '%s' never became ready", name.c_str());
  PARDA_CHECK_MSG(header->magic == kSegmentMagic &&
                      header->np == np &&
                      header->ring_bytes == seg.ring_bytes_,
                  "shm segment '%s' geometry mismatch (np %d vs %d)",
                  name.c_str(), header->np, np);
  seg.map_layout();
  return seg;
}

void ShmSegment::map_layout() {
  auto* cursor = static_cast<std::byte*>(base_) +
                 align_up(sizeof(SegmentHeader));
  doorbells_ = reinterpret_cast<std::atomic<std::uint32_t>*>(cursor);
  cursor += static_cast<std::size_t>(np_ + 1) * kAlign;
  const std::size_t rings = static_cast<std::size_t>(np_) *
                            static_cast<std::size_t>(np_);
  ring_headers_.resize(rings);
  ring_data_.resize(rings);
  for (std::size_t i = 0; i < rings; ++i) {
    ring_headers_[i] = reinterpret_cast<RingHeader*>(cursor);
    cursor += kAlign;
    ring_data_[i] = cursor;
    cursor += ring_bytes_;
  }
}

ByteRing ShmSegment::ring(int src, int dst) {
  const std::size_t i = static_cast<std::size_t>(src) *
                            static_cast<std::size_t>(np_) +
                        static_cast<std::size_t>(dst);
  return ByteRing(ring_headers_[i], ring_data_[i], ring_bytes_);
}

std::atomic<std::uint32_t>* ShmSegment::doorbell(int index) {
  return reinterpret_cast<std::atomic<std::uint32_t>*>(
      reinterpret_cast<std::byte*>(doorbells_) +
      static_cast<std::size_t>(index) * kAlign);
}

void ShmSegment::ring_doorbell(int dst) {
  doorbell(dst)->fetch_add(1, std::memory_order_release);
  futex_wake_all(doorbell(dst));
  doorbell(np_)->fetch_add(1, std::memory_order_release);
  futex_wake_all(doorbell(np_));
}

ShmSegment::ShmSegment(ShmSegment&& other) noexcept { *this = std::move(other); }

ShmSegment& ShmSegment::operator=(ShmSegment&& other) noexcept {
  if (this == &other) return *this;
  this->~ShmSegment();
  base_ = other.base_;
  size_ = other.size_;
  np_ = other.np_;
  ring_bytes_ = other.ring_bytes_;
  name_ = std::move(other.name_);
  creator_ = other.creator_;
  ring_headers_ = std::move(other.ring_headers_);
  ring_data_ = std::move(other.ring_data_);
  doorbells_ = other.doorbells_;
  other.base_ = nullptr;
  other.creator_ = false;
  other.doorbells_ = nullptr;
  return *this;
}

ShmSegment::~ShmSegment() {
  if (base_ != nullptr) {
    ::munmap(base_, size_);
    base_ = nullptr;
  }
  if (creator_ && !name_.empty()) {
    ::shm_unlink(name_.c_str());
    creator_ = false;
  }
}

}  // namespace parda::comm::transport

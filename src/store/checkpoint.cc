#include "store/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "common/atomic_file.h"
#include "store/format.h"

namespace cellscope::store {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x54504b43;  // "CKPT"
constexpr std::uint32_t kCheckpointVersion = 2;
constexpr std::size_t kRecordHead = 16;  // day + payload length
constexpr std::size_t kRecordTail = 4;   // CRC32C

// Reads the whole file; empty result on any I/O trouble (the caller treats
// every load failure identically: no resumable state).
std::vector<std::uint8_t> slurp(const std::string& path) {
  // Retry EINTR: a signal mid-open (the SIGINT flush) must not make a
  // valid checkpoint look absent and silently restart the run from day 0.
  std::FILE* f = nullptr;
  do {
    errno = 0;
    f = std::fopen(path.c_str(), "rb");
  } while (f == nullptr && errno == EINTR);
  if (f == nullptr) return {};
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
    bytes.insert(bytes.end(), buf, buf + n);
  std::fclose(f);
  return bytes;
}

// Writes all of `bytes` at `offset`; false (errno set) on failure.
bool pwrite_all(int fd, std::span<const std::uint8_t> bytes,
                std::uint64_t offset) {
  while (!bytes.empty()) {
    const ::ssize_t n = ::pwrite(fd, bytes.data(), bytes.size(),
                                 static_cast<::off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EIO;
      return false;
    }
    bytes = bytes.subspan(static_cast<std::size_t>(n));
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir, std::string config_digest)
    : path_(std::move(dir) + "/checkpoint.ckpt"),
      digest_(std::move(config_digest)) {
  std::vector<std::uint8_t> bytes = slurp(path_);
  // Fixed prelude: magic + version + digest length.
  if (bytes.size() < 12) return;
  const std::uint8_t* p = bytes.data();
  if (read_u32(p) != kCheckpointMagic) return;
  if (read_u32(p + 4) != kCheckpointVersion) return;
  const std::uint32_t digest_len = read_u32(p + 8);
  if (bytes.size() - 12 < digest_len) return;
  // A log for a different scenario is valid but not ours: start fresh.
  if (std::string_view(reinterpret_cast<const char*>(p + 12), digest_len) !=
      digest_)
    return;

  // Whole records, in order, with their payloads compacted to the front of
  // `bytes`. Every length is compared with the bytes remaining, never
  // added to first, so no crafted length can wrap. The first record that
  // is cut short, fails its CRC or does not follow the previous day ends
  // the log: it and everything after it are a torn tail.
  std::size_t off = 12 + std::size_t{digest_len};
  std::size_t kept = 0;
  while (bytes.size() - off >= kRecordHead + kRecordTail) {
    const auto day = static_cast<std::int64_t>(read_u64(p + off));
    const std::uint64_t len = read_u64(p + off + 8);
    const std::size_t body = off + kRecordHead;
    if (len > bytes.size() - body - kRecordTail) break;
    const auto n = static_cast<std::size_t>(len);
    if (crc32c(p + off, kRecordHead + n) != read_u32(p + body + n)) break;
    if (day < std::numeric_limits<SimDay>::min() ||
        day > std::numeric_limits<SimDay>::max() ||
        (last_day_ && day != std::int64_t{*last_day_} + 1))
      break;
    std::memmove(bytes.data() + kept, p + body, n);
    kept += n;
    last_day_ = static_cast<SimDay>(day);
    off = body + n + kRecordTail;
    end_ = off;
  }
  bytes.resize(kept);
  payload_ = std::move(bytes);
}

CheckpointManager::~CheckpointManager() { close_fd(); }

void CheckpointManager::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::span<const std::uint8_t> CheckpointManager::resume_payload() const {
  return {payload_.data(), payload_.size()};
}

SimDay CheckpointManager::resume_day() const { return last_day_.value_or(-1); }

void CheckpointManager::on_day_complete(SimDay day,
                                        const std::vector<std::uint8_t>& state) {
  std::vector<std::uint8_t> head;
  put_u64(head, static_cast<std::uint64_t>(std::int64_t{day}));
  put_u64(head, state.size());
  std::vector<std::uint8_t> tail;
  put_u32(tail, crc32c(state.data(), state.size(),
                       crc32c(head.data(), head.size())));

  if (last_day_ && std::int64_t{day} == std::int64_t{*last_day_} + 1) {
    const auto fail = [this](const char* what) {
      const std::string reason = std::strerror(errno);
      // The next append reopens and truncates whatever this one left.
      close_fd();
      throw std::runtime_error(std::string("checkpoint: ") + what + " " +
                               path_ + ": " + reason);
    };
    if (fd_ < 0) {
      fd_ = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd_ < 0) fail("cannot open");
      // Drop a torn tail before the record lands behind it.
      if (::ftruncate(fd_, static_cast<::off_t>(end_)) != 0)
        fail("cannot truncate");
    }
    std::uint64_t at = end_;
    for (const std::span<const std::uint8_t> piece :
         {std::span<const std::uint8_t>{head},
          std::span<const std::uint8_t>{state},
          std::span<const std::uint8_t>{tail}}) {
      if (!pwrite_all(fd_, piece, at)) fail("short write to");
      at += piece.size();
    }
    if (::fdatasync(fd_) != 0) fail("fdatasync failed for");
    end_ = at;
  } else {
    // A new log, published whole: it replaces any other log at the path.
    std::vector<std::uint8_t> bytes;
    bytes.reserve(12 + digest_.size() + head.size() + state.size() +
                  tail.size());
    put_u32(bytes, kCheckpointMagic);
    put_u32(bytes, kCheckpointVersion);
    put_u32(bytes, static_cast<std::uint32_t>(digest_.size()));
    bytes.insert(bytes.end(), digest_.begin(), digest_.end());
    bytes.insert(bytes.end(), head.begin(), head.end());
    bytes.insert(bytes.end(), state.begin(), state.end());
    bytes.insert(bytes.end(), tail.begin(), tail.end());
    close_fd();
    write_file_atomic(path_, bytes.data(), bytes.size());
    end_ = bytes.size();
  }
  last_day_ = day;
  // The loaded log has been replayed by now; resuming again reloads it.
  payload_ = std::vector<std::uint8_t>();

  if (kill_after_days_ > 0 && ++days_saved_ >= kill_after_days_) {
    // Crash injection: die the hard way, mid-run, with the record just
    // persisted — the exact scenario test_crash_resume and the CI
    // crash-resume job resume from.
    ::kill(::getpid(), SIGKILL);
  }
}

void CheckpointManager::clear() {
  close_fd();
  std::remove(path_.c_str());
  last_day_.reset();
  end_ = 0;
  payload_ = std::vector<std::uint8_t>();
}

}  // namespace cellscope::store

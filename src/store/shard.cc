#include "store/shard.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/atomic_file.h"

namespace cellscope::store {

namespace {

// Fixed sizes of the on-disk structures (see docs/STORAGE.md).
constexpr std::size_t kFileHeaderBytes = 8;       // magic + version + pad
constexpr std::size_t kShardHeaderBytes = 32;     // magic,ncols,rows,days
constexpr std::size_t kColumnDirEntryBytes = 16;  // encoding + pad + bytes
constexpr std::size_t kFooterEntryBytes = 48;
constexpr std::size_t kTailBytes = 16;  // body_len u64 + crc u32 + magic u32

// A signal landing mid-syscall (e.g. the PR-6 SIGINT flush handler) makes
// open/fstat fail with EINTR; without the retry a scan would misread the
// interruption as a missing or unreadable shard and quarantine a healthy
// feed. close() is NOT retried: on Linux the descriptor is released even
// when close reports EINTR, and retrying could close a reused fd.
int open_retry_eintr(const char* path, int flags, mode_t mode = 0) {
  for (;;) {
    const int fd = ::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

int fstat_retry_eintr(int fd, struct stat* st) {
  for (;;) {
    const int rc = ::fstat(fd, st);
    if (rc == 0 || errno != EINTR) return rc;
  }
}

}  // namespace

// ---------------------------------------------------------------- writer

FeedFileWriter::FeedFileWriter(const std::string& path,
                               std::vector<Encoding> schema,
                               std::size_t max_rows_per_shard)
    : path_(path), max_rows_per_shard_(max_rows_per_shard) {
  if (schema.empty())
    throw std::runtime_error("store: feed schema needs at least one column");
  if (max_rows_per_shard_ == 0) max_rows_per_shard_ = 1;
  columns_.reserve(schema.size());
  for (const auto encoding : schema) columns_.push_back({encoding, {}, 0});

  // Stream into the scratch name; close() publishes with fsync + rename.
  const std::string tmp = path_ + kTmpSuffix;
  fd_ = open_retry_eintr(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0)
    throw std::runtime_error("store: cannot create " + tmp + ": " +
                             std::strerror(errno));
  std::vector<std::uint8_t> header;
  put_u32(header, kFileMagic);
  header.push_back(static_cast<std::uint8_t>(kFormatVersion & 0xff));
  header.push_back(static_cast<std::uint8_t>(kFormatVersion >> 8));
  header.push_back(0);
  header.push_back(0);
  write_all(header.data(), header.size());
}

FeedFileWriter::~FeedFileWriter() {
  if (!closed_ && fd_ >= 0) {
    // Abandoned writer (unwound without close()): nothing is published.
    // Drop the scratch file; a SIGKILLed process leaves it for the sweep.
    ::close(fd_);
    ::unlink((path_ + kTmpSuffix).c_str());
  }
}

void FeedFileWriter::write_all(const std::uint8_t* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t wrote = ::write(fd_, data + done, n - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("store: write failed for " + path_ + ": " +
                               std::strerror(errno));
    }
    done += static_cast<std::size_t>(wrote);
  }
  file_offset_ += n;
}

void FeedFileWriter::u64(std::size_t col, std::uint64_t value) {
  Column& c = columns_[col];
  if (c.encoding == Encoding::kRaw64) {
    put_u64(c.payload, value);
  } else {
    put_varint(c.payload, value);
  }
}

void FeedFileWriter::i64(std::size_t col, std::int64_t value) {
  Column& c = columns_[col];
  put_varint(c.payload, zigzag_encode(value - c.prev));
  c.prev = value;
}

void FeedFileWriter::f64(std::size_t col, double value) {
  put_double_bits(columns_[col].payload, value);
}

void FeedFileWriter::bytes(std::size_t col, std::string_view value) {
  put_varint(columns_[col].payload, value.size());
  bytes(col, value.data(), value.size());
}

void FeedFileWriter::bytes(std::size_t col, const void* data, std::size_t n) {
  auto& payload = columns_[col].payload;
  const auto* p = static_cast<const std::uint8_t*>(data);
  payload.insert(payload.end(), p, p + n);
}

void FeedFileWriter::end_row(std::int64_t day) {
  if (rows_in_shard_ == 0) {
    min_day_ = day;
    max_day_ = day;
  } else {
    min_day_ = std::min(min_day_, day);
    max_day_ = std::max(max_day_, day);
  }
  ++rows_in_shard_;
  ++rows_written_;
  if (rows_in_shard_ >= max_rows_per_shard_) flush_shard();
}

void FeedFileWriter::flush_shard() {
  if (rows_in_shard_ == 0) return;

  std::vector<std::uint8_t> shard;
  std::size_t payload_bytes = 0;
  for (const Column& c : columns_) payload_bytes += c.payload.size();
  shard.reserve(kShardHeaderBytes + columns_.size() * kColumnDirEntryBytes +
                payload_bytes);
  put_u32(shard, kShardMagic);
  put_u32(shard, static_cast<std::uint32_t>(columns_.size()));
  put_u64(shard, rows_in_shard_);
  put_u64(shard, static_cast<std::uint64_t>(min_day_));
  put_u64(shard, static_cast<std::uint64_t>(max_day_));
  for (const Column& c : columns_) {
    shard.push_back(static_cast<std::uint8_t>(c.encoding));
    for (int i = 0; i < 7; ++i) shard.push_back(0);
    put_u64(shard, c.payload.size());
  }
  for (Column& c : columns_) {
    shard.insert(shard.end(), c.payload.begin(), c.payload.end());
    c.payload.clear();
    c.prev = 0;  // each shard is self-contained
  }

  ShardIndexEntry entry;
  entry.offset = file_offset_;
  entry.length = shard.size();
  entry.rows = rows_in_shard_;
  entry.min_day = min_day_;
  entry.max_day = max_day_;
  entry.crc = crc32c(shard.data(), shard.size());
  index_.push_back(entry);

  write_all(shard.data(), shard.size());
  rows_in_shard_ = 0;
}

std::uint64_t FeedFileWriter::close() {
  if (closed_) return file_offset_;
  flush_shard();

  std::vector<std::uint8_t> body;
  put_u64(body, index_.size());
  for (const ShardIndexEntry& e : index_) {
    put_u64(body, e.offset);
    put_u64(body, e.length);
    put_u64(body, e.rows);
    put_u64(body, static_cast<std::uint64_t>(e.min_day));
    put_u64(body, static_cast<std::uint64_t>(e.max_day));
    put_u32(body, e.crc);
    put_u32(body, 0);
  }
  std::vector<std::uint8_t> tail;
  put_u64(tail, body.size());
  put_u32(tail, crc32c(body.data(), body.size()));
  put_u32(tail, kTailMagic);

  write_all(body.data(), body.size());
  write_all(tail.data(), tail.size());
  closed_ = true;
  publish_file_atomic(fd_, path_ + kTmpSuffix, path_);
  const int rc = ::close(fd_);
  fd_ = -1;
  // EINTR from close is success on Linux: the fd is already released, and
  // the data was published by publish_file_atomic's fsync above.
  if (rc != 0 && errno != EINTR)
    throw std::runtime_error("store: close failed for " + path_ + ": " +
                             std::strerror(errno));
  return file_offset_;
}

// ---------------------------------------------------------------- cursor

bool ColumnCursor::next_u64(std::uint64_t& value) {
  if (column_.encoding == Encoding::kRaw64) {
    if (pos_ + 8 > end_) return false;
    value = read_u64(pos_);
    pos_ += 8;
    return true;
  }
  return get_varint(pos_, end_, value);
}

bool ColumnCursor::next_i64(std::int64_t& value) {
  std::uint64_t raw = 0;
  if (!get_varint(pos_, end_, raw)) return false;
  prev_ += zigzag_decode(raw);
  value = prev_;
  return true;
}

bool ColumnCursor::next_bytes(std::size_t n, const std::uint8_t*& out) {
  if (static_cast<std::size_t>(end_ - pos_) < n) return false;
  out = pos_;
  pos_ += n;
  return true;
}

bool ColumnCursor::next_f64(double& value) {
  if (pos_ + 8 > end_) return false;
  value = std::bit_cast<double>(read_u64(pos_));
  pos_ += 8;
  return true;
}

// ---------------------------------------------------------------- reader

FeedFileReader::FeedFileReader(const std::string& path) { validate(path); }

FeedFileReader::~FeedFileReader() {
  if (data_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(data_), static_cast<std::size_t>(size_));
}

void FeedFileReader::validate(const std::string& path) {
  const int fd = open_retry_eintr(path.c_str(), O_RDONLY);
  if (fd < 0) {
    status_ = Status::kMissing;
    error_ = "cannot open " + path + ": " + std::strerror(errno);
    return;
  }
  struct stat st{};
  if (fstat_retry_eintr(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    error_ = "cannot stat " + path;
    return;
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  if (size_ < kFileHeaderBytes + kTailBytes) {
    ::close(fd);
    error_ = path + ": truncated (" + std::to_string(size_) + " bytes)";
    return;
  }
  void* map = ::mmap(nullptr, static_cast<std::size_t>(size_), PROT_READ,
                     MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    error_ = "mmap failed for " + path + ": " + std::strerror(errno);
    return;
  }
  data_ = static_cast<const std::uint8_t*>(map);

  // Header.
  if (read_u32(data_) != kFileMagic) {
    error_ = path + ": bad file magic";
    return;
  }
  const std::uint16_t version =
      static_cast<std::uint16_t>(data_[4] | (data_[5] << 8));
  if (version != kFormatVersion) {
    error_ = path + ": unsupported format version " + std::to_string(version);
    return;
  }

  // Tail: [body_len u64][crc u32][magic u32] at the very end. A truncated
  // file loses the tail magic first, so truncation is detected before any
  // shard byte is trusted.
  const std::uint8_t* tail = data_ + size_ - kTailBytes;
  if (read_u32(tail + 12) != kTailMagic) {
    error_ = path + ": missing tail magic (file truncated?)";
    return;
  }
  const std::uint64_t body_len = read_u64(tail);
  const std::uint32_t body_crc = read_u32(tail + 8);
  if (body_len < 8 ||
      body_len > size_ - kFileHeaderBytes - kTailBytes) {
    error_ = path + ": footer length out of range";
    return;
  }
  const std::uint8_t* body = tail - body_len;
  if (crc32c(body, static_cast<std::size_t>(body_len)) != body_crc) {
    error_ = path + ": footer checksum mismatch";
    return;
  }
  // Every length below comes from the file, so bounds compare by division
  // and subtraction: a crafted count, offset or length cannot wrap a sum
  // back into range.
  const std::uint64_t shard_count = read_u64(body);
  if ((body_len - 8) % kFooterEntryBytes != 0 ||
      shard_count != (body_len - 8) / kFooterEntryBytes) {
    error_ = path + ": footer entry count inconsistent";
    return;
  }

  // Footer is sound: the file is structurally readable. Validate each
  // shard independently so one flipped bit costs one shard, not the file.
  status_ = Status::kOk;
  const std::uint64_t data_end = size_ - kTailBytes - body_len;
  for (std::uint64_t s = 0; s < shard_count; ++s) {
    const std::uint8_t* e = body + 8 + s * kFooterEntryBytes;
    ShardIndexEntry entry;
    entry.offset = read_u64(e);
    entry.length = read_u64(e + 8);
    entry.rows = read_u64(e + 16);
    entry.min_day = static_cast<std::int64_t>(read_u64(e + 24));
    entry.max_day = static_cast<std::int64_t>(read_u64(e + 32));
    entry.crc = read_u32(e + 40);

    const auto quarantine = [&](const std::string& why) {
      ++quarantined_;
      quarantine_log_.push_back(path + " shard " + std::to_string(s) + ": " +
                                why);
    };

    if (entry.offset < kFileHeaderBytes || entry.length < kShardHeaderBytes ||
        entry.offset > data_end || entry.length > data_end - entry.offset) {
      quarantine("offset/length outside file data region");
      continue;
    }
    const std::uint8_t* shard = data_ + entry.offset;
    if (crc32c(shard, static_cast<std::size_t>(entry.length)) != entry.crc) {
      quarantine("CRC32C mismatch");
      continue;
    }
    // CRC passed: structural fields should agree with the footer; treat
    // any disagreement as corruption anyway (defense in depth).
    if (read_u32(shard) != kShardMagic) {
      quarantine("bad shard magic");
      continue;
    }
    const std::uint32_t ncols = read_u32(shard + 4);
    const std::uint64_t rows = read_u64(shard + 8);
    if (rows != entry.rows) {
      quarantine("row count disagrees with footer");
      continue;
    }
    const std::size_t dir_end =
        kShardHeaderBytes + ncols * kColumnDirEntryBytes;
    if (ncols == 0 || dir_end > entry.length) {
      quarantine("column directory exceeds shard");
      continue;
    }
    ShardView view;
    view.rows = rows;
    view.min_day = static_cast<std::int64_t>(read_u64(shard + 16));
    view.max_day = static_cast<std::int64_t>(read_u64(shard + 24));
    std::uint64_t payload_offset = dir_end;
    bool ok = true;
    for (std::uint32_t c = 0; c < ncols; ++c) {
      const std::uint8_t* d = shard + kShardHeaderBytes +
                              c * kColumnDirEntryBytes;
      ColumnView column;
      const std::uint8_t encoding = d[0];
      if (encoding > static_cast<std::uint8_t>(Encoding::kBytes)) {
        ok = false;
        break;
      }
      column.encoding = static_cast<Encoding>(encoding);
      column.bytes = read_u64(d + 8);
      if (column.bytes > entry.length - payload_offset) {
        ok = false;
        break;
      }
      column.data = shard + payload_offset;
      payload_offset += column.bytes;
      view.columns.push_back(column);
    }
    if (!ok || payload_offset != entry.length) {
      quarantine("column payload layout inconsistent");
      continue;
    }
    total_rows_ += rows;
    shards_.push_back(std::move(view));
  }
}

}  // namespace cellscope::store

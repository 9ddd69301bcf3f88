// Columnar shard files: the physical layer of the cellstore feed store.
//
// One FeedFileWriter produces one `<feed>.csf` file: a fixed header, then
// append-only shards (each a self-contained batch of rows, encoded column
// by column), then a footer indexing every shard with its row count, day
// range and CRC32C. Writing is bounded-memory: rows buffer into per-column
// encoders and flush as a shard every `max_rows_per_shard` rows, so a feed
// of millions of rows never holds more than one shard's worth in RAM.
//
// One FeedFileReader memory-maps a feed file and validates it back to
// front: tail magic, footer checksum, then a per-shard CRC over the mapped
// bytes. Shards that fail validation are *quarantined* — counted, reported
// with a reason, and skipped — while every intact shard stays readable;
// the dataset layer (dataset_io.h) routes those counts into the
// telemetry/quality ledger so a corrupted store degrades exactly like a
// degraded measurement feed. Column payloads are decoded straight out of
// the mapping (zero-copy); ColumnCursor is the sequential decoder.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "store/format.h"

namespace cellscope::store {

// -------------------------------------------------------------- writing

class FeedFileWriter {
 public:
  // Opens `path + ".tmp"` (truncating) and writes the file header there;
  // close() fsyncs and atomically renames the temp file onto `path`, so a
  // crashed writer never leaves a partial file at the published name —
  // only `.tmp` litter the next run sweeps (common/atomic_file.h).
  // `schema` fixes the column count and encodings for every shard of this
  // file. Throws std::runtime_error when the file cannot be opened.
  FeedFileWriter(const std::string& path, std::vector<Encoding> schema,
                 std::size_t max_rows_per_shard = kDefaultRowsPerShard);
  ~FeedFileWriter();

  FeedFileWriter(const FeedFileWriter&) = delete;
  FeedFileWriter& operator=(const FeedFileWriter&) = delete;

  // Appends one value to a column of the current row. Each row must touch
  // its columns exactly once each (unchecked here; test_dataset_codec
  // checks every section encoder of sim/dataset_codec.h against it).
  void u64(std::size_t col, std::uint64_t value);    // kVarint / kRaw64
  void i64(std::size_t col, std::int64_t value);     // kDeltaZigzagVarint
  void f64(std::size_t col, double value);           // kRaw64 (IEEE bits)
  void bytes(std::size_t col, std::string_view value);  // kBytes, framed
  // kBytes raw payload; the caller writes the varint length frame first.
  void bytes(std::size_t col, const void* data, std::size_t n);

  // Closes the current row, tagging it with `day` for the shard's min/max
  // day index. Auto-flushes a shard at max_rows_per_shard.
  void end_row(std::int64_t day);

  // Encodes buffered rows as one shard now (no-op with zero rows).
  void flush_shard();

  // Flushes, writes the footer, fsyncs and renames the temp file onto its
  // final path. Returns the final file size in bytes. This is the ONLY way
  // a feed file gets published: a writer destroyed without close() (stack
  // unwind, interrupt) discards its temp file and leaves any previously
  // published file untouched. Throws std::runtime_error on write failure.
  std::uint64_t close();

  [[nodiscard]] std::uint64_t rows_written() const { return rows_written_; }
  [[nodiscard]] std::uint64_t shards_written() const {
    return index_.size();
  }

  static constexpr std::size_t kDefaultRowsPerShard = 8192;

 private:
  struct Column {
    Encoding encoding;
    std::vector<std::uint8_t> payload;
    std::int64_t prev = 0;  // delta state, reset each shard
  };

  std::string path_;
  int fd_ = -1;
  std::vector<Column> columns_;
  std::size_t max_rows_per_shard_;
  std::uint64_t rows_in_shard_ = 0;
  std::uint64_t rows_written_ = 0;
  std::int64_t min_day_ = 0;
  std::int64_t max_day_ = 0;
  std::uint64_t file_offset_ = 0;
  std::vector<ShardIndexEntry> index_;
  bool closed_ = false;

  void write_all(const std::uint8_t* data, std::size_t n);
};

// -------------------------------------------------------------- reading

struct ColumnView {
  Encoding encoding = Encoding::kRaw64;
  const std::uint8_t* data = nullptr;
  std::size_t bytes = 0;
};

struct ShardView {
  std::uint64_t rows = 0;
  std::int64_t min_day = 0;
  std::int64_t max_day = 0;
  std::vector<ColumnView> columns;
};

// Sequential decoder over one column of one shard. All reads are
// bounds-checked against the mapped payload: a decode overrun returns
// false instead of walking off the mapping, and the caller quarantines.
class ColumnCursor {
 public:
  explicit ColumnCursor(const ColumnView& column) : column_(column) {
    pos_ = column.data;
    end_ = column.data + column.bytes;
  }

  bool next_u64(std::uint64_t& value);
  bool next_i64(std::int64_t& value);
  bool next_f64(double& value);
  // kBytes columns framed as [varint length][bytes]...: consumes `n` raw
  // bytes, pointing `out` into the mapping.
  bool next_bytes(std::size_t n, const std::uint8_t*& out);

 private:
  ColumnView column_;
  const std::uint8_t* pos_;
  const std::uint8_t* end_;
  std::int64_t prev_ = 0;
};

class FeedFileReader {
 public:
  enum class Status {
    kOk,        // footer valid; zero or more shards quarantined
    kMissing,   // file does not exist
    kCorrupt,   // header/tail/footer invalid — nothing is readable
  };

  // Opens, maps and validates `path`. Never throws on bad input — the
  // status/quarantine API reports what survived.
  explicit FeedFileReader(const std::string& path);
  ~FeedFileReader();

  FeedFileReader(const FeedFileReader&) = delete;
  FeedFileReader& operator=(const FeedFileReader&) = delete;

  [[nodiscard]] Status status() const { return status_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  // Shards that passed CRC + structural validation, in file order.
  [[nodiscard]] const std::vector<ShardView>& shards() const {
    return shards_;
  }
  // Shards (or, for kCorrupt files, the whole file as one unit) that
  // failed validation, with reasons.
  [[nodiscard]] std::uint64_t quarantined_shards() const {
    return quarantined_;
  }
  [[nodiscard]] const std::vector<std::string>& quarantine_log() const {
    return quarantine_log_;
  }

  [[nodiscard]] std::uint64_t total_rows() const { return total_rows_; }
  [[nodiscard]] std::uint64_t file_bytes() const { return size_; }

 private:
  Status status_ = Status::kCorrupt;
  std::string error_;
  const std::uint8_t* data_ = nullptr;
  std::uint64_t size_ = 0;
  std::vector<ShardView> shards_;
  std::uint64_t quarantined_ = 0;
  std::uint64_t total_rows_ = 0;
  std::vector<std::string> quarantine_log_;

  void validate(const std::string& path);
};

}  // namespace cellscope::store

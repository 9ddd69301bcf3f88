// Unit tests for the cellstore physical layer: format primitives (varint,
// zigzag, CRC32C) and the shard writer/reader round trip, including the
// per-shard quarantine behaviour the dataset layer builds on.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "store/format.h"
#include "store/shard.h"

namespace cellscope::store {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "cellstore_" + name;
  std::filesystem::remove(path);
  return path;
}

TEST(Varint, RoundTripsRepresentativeValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  16'383,
                                  16'384,
                                  0xDEADBEEF,
                                  std::numeric_limits<std::uint64_t>::max()};
  std::vector<std::uint8_t> buf;
  for (const auto v : values) put_varint(buf, v);
  const std::uint8_t* p = buf.data();
  const std::uint8_t* end = buf.data() + buf.size();
  for (const auto v : values) {
    std::uint64_t decoded = 0;
    ASSERT_TRUE(get_varint(p, end, decoded));
    EXPECT_EQ(decoded, v);
  }
  EXPECT_EQ(p, end);
}

TEST(Varint, DecodeFailsOnTruncation) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 1'000'000);
  ASSERT_GT(buf.size(), 1u);
  const std::uint8_t* p = buf.data();
  const std::uint8_t* end = buf.data() + buf.size() - 1;  // clip last byte
  std::uint64_t decoded = 0;
  EXPECT_FALSE(get_varint(p, end, decoded));
}

TEST(Zigzag, RoundTripsSignedRange) {
  const std::int64_t values[] = {0,
                                 -1,
                                 1,
                                 -2,
                                 63,
                                 -64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const auto v : values) EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  // Small magnitudes map to small codes — the property the day columns
  // rely on for ~1 byte/row.
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(Crc32c, MatchesCheckValueAndChains) {
  // The standard CRC-32C check value over ASCII "123456789".
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32c(check, sizeof check), 0xE3069283u);
  // Seeding with a prior CRC continues the same stream.
  const std::uint32_t first = crc32c(check, 4);
  EXPECT_EQ(crc32c(check + 4, sizeof check - 4, first),
            crc32c(check, sizeof check));
}

TEST(ShardFile, RoundTripsMultipleShardsAndColumns) {
  const std::string path = temp_path("roundtrip.csf");
  const std::int64_t days[] = {-3, -3, 0, 5, 5, 5, 6, 9, 9, 10};
  const std::uint64_t counts[] = {0, 1, 127, 128, 300, 7, 0, 42, 9000, 1};
  const double values[] = {0.0,
                           -0.0,
                           1.5,
                           -123.456,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           -1e300,
                           3.141592653589793,
                           1e-9,
                           2.2250738585072014e-308};
  {
    FeedFileWriter writer{path,
                          {Encoding::kDeltaZigzagVarint, Encoding::kVarint,
                           Encoding::kRaw64},
                          /*max_rows_per_shard=*/4};
    for (int i = 0; i < 10; ++i) {
      writer.i64(0, days[i]);
      writer.u64(1, counts[i]);
      writer.f64(2, values[i]);
      writer.end_row(days[i]);
    }
    EXPECT_EQ(writer.rows_written(), 10u);
    const auto size = writer.close();
    EXPECT_EQ(size, std::filesystem::file_size(path));
  }

  FeedFileReader reader{path};
  ASSERT_EQ(reader.status(), FeedFileReader::Status::kOk) << reader.error();
  EXPECT_EQ(reader.quarantined_shards(), 0u);
  EXPECT_EQ(reader.total_rows(), 10u);
  ASSERT_EQ(reader.shards().size(), 3u);  // 4 + 4 + 2 rows

  int row = 0;
  for (const auto& shard : reader.shards()) {
    ASSERT_EQ(shard.columns.size(), 3u);
    ColumnCursor day_cursor{shard.columns[0]};
    ColumnCursor count_cursor{shard.columns[1]};
    ColumnCursor value_cursor{shard.columns[2]};
    std::int64_t shard_min = std::numeric_limits<std::int64_t>::max();
    std::int64_t shard_max = std::numeric_limits<std::int64_t>::min();
    for (std::uint64_t i = 0; i < shard.rows; ++i, ++row) {
      std::int64_t day = 0;
      std::uint64_t count = 0;
      double value = 0.0;
      ASSERT_TRUE(day_cursor.next_i64(day));
      ASSERT_TRUE(count_cursor.next_u64(count));
      ASSERT_TRUE(value_cursor.next_f64(value));
      EXPECT_EQ(day, days[row]);
      EXPECT_EQ(count, counts[row]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
                std::bit_cast<std::uint64_t>(values[row]));
      shard_min = std::min(shard_min, day);
      shard_max = std::max(shard_max, day);
    }
    EXPECT_EQ(shard.min_day, shard_min);
    EXPECT_EQ(shard.max_day, shard_max);
    // The cursor is exhausted exactly at the payload end.
    std::int64_t extra = 0;
    EXPECT_FALSE(day_cursor.next_i64(extra));
  }
  EXPECT_EQ(row, 10);
}

TEST(ShardFile, RoundTripsLengthFramedBlobs) {
  const std::string path = temp_path("blobs.csf");
  const std::string names[] = {"", "kpi-import", "a much longer feed name"};
  {
    FeedFileWriter writer{path, {Encoding::kBytes}};
    for (const auto& name : names) {
      writer.u64(0, name.size());  // varint length frame
      writer.bytes(0, name.data(), name.size());
      writer.end_row(0);
    }
    writer.close();
  }
  FeedFileReader reader{path};
  ASSERT_EQ(reader.status(), FeedFileReader::Status::kOk) << reader.error();
  ASSERT_EQ(reader.shards().size(), 1u);
  ColumnCursor cursor{reader.shards()[0].columns[0]};
  for (const auto& name : names) {
    std::uint64_t len = 0;
    ASSERT_TRUE(cursor.next_u64(len));
    ASSERT_EQ(len, name.size());
    const std::uint8_t* data = nullptr;
    ASSERT_TRUE(cursor.next_bytes(static_cast<std::size_t>(len), data));
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(data), len), name);
  }
}

TEST(ShardFile, EmptyFeedIsValidWithZeroShards) {
  const std::string path = temp_path("empty.csf");
  {
    FeedFileWriter writer{path, {Encoding::kVarint}};
    writer.close();
  }
  FeedFileReader reader{path};
  EXPECT_EQ(reader.status(), FeedFileReader::Status::kOk) << reader.error();
  EXPECT_EQ(reader.shards().size(), 0u);
  EXPECT_EQ(reader.total_rows(), 0u);
}

TEST(ShardFile, MissingFileReportsMissing) {
  FeedFileReader reader{temp_path("does_not_exist.csf")};
  EXPECT_EQ(reader.status(), FeedFileReader::Status::kMissing);
}

TEST(ShardFile, GarbageFileReportsCorrupt) {
  const std::string path = temp_path("garbage.csf");
  {
    std::ofstream out{path, std::ios::binary};
    out << "this is not a cellstore feed file at all";
  }
  FeedFileReader reader{path};
  EXPECT_EQ(reader.status(), FeedFileReader::Status::kCorrupt);
  EXPECT_FALSE(reader.error().empty());
}

TEST(ShardFile, BitFlipQuarantinesOnlyTheDamagedShard) {
  const std::string path = temp_path("bitflip.csf");
  constexpr int kRows = 12;  // 3 shards of 4
  {
    FeedFileWriter writer{path, {Encoding::kVarint}, 4};
    for (int i = 0; i < kRows; ++i) {
      writer.u64(0, static_cast<std::uint64_t>(i) * 1000);
      writer.end_row(i);
    }
    writer.close();
  }
  // Flip one byte in the middle of the shard region: [8, size - footer)
  // where the footer is 8 (count) + 3 * 48 (entries) + 16 (tail) bytes.
  const auto size = std::filesystem::file_size(path);
  const std::uint64_t footer = 8 + 3 * 48 + 16;
  ASSERT_GT(size, footer + 8);
  const std::uint64_t target = 8 + (size - footer - 8) / 2;
  {
    std::fstream file{path, std::ios::in | std::ios::out | std::ios::binary};
    file.seekg(static_cast<std::streamoff>(target));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(target));
    file.write(&byte, 1);
  }

  FeedFileReader reader{path};
  ASSERT_EQ(reader.status(), FeedFileReader::Status::kOk) << reader.error();
  EXPECT_EQ(reader.quarantined_shards(), 1u);
  ASSERT_EQ(reader.quarantine_log().size(), 1u);
  EXPECT_EQ(reader.shards().size(), 2u);
  EXPECT_EQ(reader.total_rows(), 8u);
  // The surviving shards still decode to exactly what was written.
  for (const auto& shard : reader.shards()) {
    ColumnCursor cursor{shard.columns[0]};
    for (std::uint64_t i = 0; i < shard.rows; ++i) {
      std::uint64_t value = 0;
      ASSERT_TRUE(cursor.next_u64(value));
      EXPECT_EQ(value % 1000, 0u);
      EXPECT_EQ(value / 1000, static_cast<std::uint64_t>(shard.min_day) + i);
    }
  }
}

TEST(ShardFile, TruncatedFileReportsCorruptNotCrash) {
  const std::string path = temp_path("truncated.csf");
  {
    FeedFileWriter writer{path, {Encoding::kRaw64}};
    for (int i = 0; i < 100; ++i) {
      writer.f64(0, i * 0.5);
      writer.end_row(i);
    }
    writer.close();
  }
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  FeedFileReader reader{path};
  EXPECT_EQ(reader.status(), FeedFileReader::Status::kCorrupt);
  EXPECT_EQ(reader.shards().size(), 0u);
}

// Crafted footers and column directories whose checksums still match: a
// count, offset or length chosen so the reader's bound would wrap back
// into range must be refused (kCorrupt or a quarantined shard), never
// followed off the mapping.
class CraftedFile {
 public:
  // A two-shard, two-column file: shard 0 holds rows 0-3, shard 1 rows 4-7.
  explicit CraftedFile(const std::string& name) : path_(temp_path(name)) {
    FeedFileWriter writer{path_, {Encoding::kVarint, Encoding::kRaw64}, 4};
    for (int i = 0; i < 8; ++i) {
      writer.u64(0, static_cast<std::uint64_t>(i));
      writer.f64(1, i * 0.25);
      writer.end_row(i);
    }
    writer.close();
    std::ifstream in{path_, std::ios::binary};
    bytes_.assign(std::istreambuf_iterator<char>{in}, {});
  }

  [[nodiscard]] std::uint64_t body_len() const { return get(tail()); }
  [[nodiscard]] std::size_t body() const { return tail() - body_len(); }
  // Offset of footer entry `s`: offset, length, rows, min/max day, crc.
  [[nodiscard]] std::size_t entry(std::size_t s) const {
    return body() + 8 + s * 48;
  }
  [[nodiscard]] std::uint64_t get(std::size_t at) const {
    return read_u64(bytes_.data() + at);
  }
  void set(std::size_t at, std::uint64_t value) {
    for (int b = 0; b < 8; ++b)
      bytes_[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
  void set_u32(std::size_t at, std::uint32_t value) {
    for (int b = 0; b < 4; ++b)
      bytes_[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
  // Re-seals shard `s`'s CRC in its footer entry.
  void reseal_shard(std::size_t s) {
    const std::size_t e = entry(s);
    set_u32(e + 40, crc32c(bytes_.data() + get(e), get(e + 8)));
  }
  // Re-seals the footer CRC in the tail, then writes the file back.
  FeedFileReader reseal_and_open() {
    set_u32(tail() + 8, crc32c(bytes_.data() + body(), body_len()));
    std::ofstream out{path_, std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(bytes_.data()),
              static_cast<std::streamsize>(bytes_.size()));
    out.close();
    return FeedFileReader{path_};
  }

 private:
  [[nodiscard]] std::size_t tail() const { return bytes_.size() - 16; }
  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST(ShardFile, WrappingFooterShardCountIsCorrupt) {
  CraftedFile file{"wrap_count.csf"};
  ASSERT_EQ(file.body_len(), 8u + 2 * 48);
  // 8 + (2 + 2^60) * 48 wraps to the real body length, 104.
  file.set(file.body(), 2 + (std::uint64_t{1} << 60));
  const FeedFileReader reader = file.reseal_and_open();
  EXPECT_EQ(reader.status(), FeedFileReader::Status::kCorrupt);
  EXPECT_TRUE(reader.shards().empty());
}

TEST(ShardFile, WrappingShardOffsetPlusLengthIsQuarantined) {
  CraftedFile file{"wrap_extent.csf"};
  const std::size_t e = file.entry(1);
  ASSERT_GT(file.get(e), 40u);
  // Shard 1's offset + length wraps to 40: inside the data region by a
  // naive sum, with a length far past the end of the file.
  file.set(e + 8, std::uint64_t{0} - file.get(e) + 40);
  const FeedFileReader reader = file.reseal_and_open();
  ASSERT_EQ(reader.status(), FeedFileReader::Status::kOk) << reader.error();
  EXPECT_EQ(reader.quarantined_shards(), 1u);
  ASSERT_EQ(reader.shards().size(), 1u);
  EXPECT_EQ(reader.shards()[0].min_day, 0);
}

TEST(ShardFile, WrappingColumnLengthIsQuarantined) {
  CraftedFile file{"wrap_column.csf"};
  const std::size_t e = file.entry(0);
  const std::size_t shard = file.get(e);
  const std::uint64_t length = file.get(e + 8);
  const std::uint64_t dir_end = 32 + 2 * 16;
  // Column 0's length wraps the running payload offset from dir_end to 1
  // and column 1 takes the rest, so the naive sum ends exactly at the
  // shard's length. The shard CRC is re-sealed over the crafted directory.
  file.set(shard + 32 + 8, std::uint64_t{0} - (dir_end - 1));
  file.set(shard + 32 + 16 + 8, length - 1);
  file.reseal_shard(0);
  const FeedFileReader reader = file.reseal_and_open();
  ASSERT_EQ(reader.status(), FeedFileReader::Status::kOk) << reader.error();
  EXPECT_EQ(reader.quarantined_shards(), 1u);
  ASSERT_EQ(reader.shards().size(), 1u);
  EXPECT_EQ(reader.shards()[0].min_day, 4);
}

}  // namespace
}  // namespace cellscope::store

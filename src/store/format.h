// cellstore binary format primitives.
//
// The on-disk feed store (docs/STORAGE.md) is a dependency-free columnar
// format: one file per feed, each file a sequence of self-describing shards
// followed by a footer that indexes them (offset, length, row count, day
// range, CRC32C). This header holds the building blocks every layer above
// shares: the magic numbers, the per-column encoding ids, LEB128 varints
// with zigzag for signed deltas, and the CRC32C (Castagnoli) checksum the
// footer carries per shard.
//
// Integers are little-endian on disk. Doubles are raw IEEE 754 bits
// (std::bit_cast through std::uint64_t), never printed and re-parsed, so a
// value survives a write/read round trip bit-for-bit — the replay
// determinism contract (test_store_replay) depends on exactly this.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace cellscope::store {

// File layout magics ("CSF1" file header, "SHRD" shard header, "CSFE" file
// tail), spelled as little-endian u32 constants.
inline constexpr std::uint32_t kFileMagic = 0x31465343;   // "CSF1"
inline constexpr std::uint32_t kShardMagic = 0x44524853;  // "SHRD"
inline constexpr std::uint32_t kTailMagic = 0x45465343;   // "CSFE"
inline constexpr std::uint16_t kFormatVersion = 1;

// Per-column payload encodings.
enum class Encoding : std::uint8_t {
  // 8 bytes per value, little-endian. Used for doubles (IEEE 754 bits) and
  // for unsigned values that do not compress (none currently).
  kRaw64 = 0,
  // Unsigned LEB128 varint per value (no delta). Counts, small ids.
  kVarint = 1,
  // Per-value delta against the previous value, zigzag-mapped, then LEB128.
  // Timestamps (day columns) and sorted id columns collapse to ~1 byte per
  // row under this.
  kDeltaZigzagVarint = 2,
  // Per row, an unsigned LEB128 length then that many raw bytes. Used for
  // names (the quality ledger's feeds).
  kBytes = 3,
};

// ---------------------------------------------------------------- varints

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

inline constexpr std::uint64_t zigzag_encode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

inline constexpr std::int64_t zigzag_decode(std::uint64_t value) {
  return static_cast<std::int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

// Bounds-checked varint decode; returns false on overrun or a varint wider
// than 64 bits (both only reachable through corruption, which the caller
// quarantines).
inline bool get_varint(const std::uint8_t*& p, const std::uint8_t* end,
                       std::uint64_t& value) {
  value = 0;
  int shift = 0;
  while (p < end && shift < 64) {
    const std::uint8_t byte = *p++;
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}

// ------------------------------------------------------------ fixed width

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

inline void put_double_bits(std::vector<std::uint8_t>& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

inline std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i)
    value |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return value;
}

inline std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i)
    value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return value;
}

// --------------------------------------------------------------- CRC32C

// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum the shard footer stores per shard. Software table
// implementation; the store is I/O-bound, not checksum-bound.
[[nodiscard]] std::uint32_t crc32c(const std::uint8_t* data, std::size_t n,
                                   std::uint32_t seed = 0);

// ---------------------------------------------------------------- footer

// One footer entry: everything the reader needs to locate and validate a
// shard without touching its bytes first.
struct ShardIndexEntry {
  std::uint64_t offset = 0;  // from start of file
  std::uint64_t length = 0;  // shard bytes (header + payloads)
  std::uint64_t rows = 0;
  std::int64_t min_day = 0;
  std::int64_t max_day = 0;
  std::uint32_t crc = 0;  // CRC32C over the shard bytes
};

// Conventional file name of a feed inside a store directory.
[[nodiscard]] inline std::string feed_file_name(const std::string& feed) {
  return feed + ".csf";
}

}  // namespace cellscope::store

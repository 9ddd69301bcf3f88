// Minimal self-describing-free binary serialization for checkpoints.
//
// The crash-safety layer (docs/RECOVERY.md) snapshots the simulator's
// resumable state at day boundaries. That state is a mix of counters,
// IEEE-754 accumulators and small structs; the encoding here is the same
// family the CSF1 store uses — LEB128 varints for unsigned integers,
// zigzag for signed, raw little-endian bits for doubles (bit-exactness is
// part of the resume contract) — but header-only and dependency-free so
// both src/sim (which produces the state) and src/store (which persists
// it) can use it without a layering cycle.
//
// There is no schema or tagging: writer and reader must agree on field
// order, guarded by the checkpoint's version field. Truncated or trailing
// input surfaces as BlobError, never as UB.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cellscope {

class BlobError : public std::runtime_error {
 public:
  explicit BlobError(const std::string& what) : std::runtime_error(what) {}
};

class BlobWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }

  // LEB128 varint.
  void u64(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) { u64(v); }

  // Zigzag + varint; small magnitudes of either sign stay small.
  void i64(std::int64_t v) {
    u64((static_cast<std::uint64_t>(v) << 1) ^
        static_cast<std::uint64_t>(v >> 63));
  }

  // Raw bit pattern, little-endian: resume must reproduce accumulators
  // bit for bit, so no decimal round-trip is allowed.
  void f64(double v) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>(bits));
      bits >>= 8;
    }
  }

  void bytes(std::string_view s) {
    u64(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return out_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

class BlobReader {
 public:
  explicit BlobReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (shift >= 64) throw BlobError{"checkpoint blob: varint overflow"};
      const std::uint8_t byte = u8();
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::uint32_t u32() {
    const std::uint64_t v = u64();
    if (v > 0xffffffffull) throw BlobError{"checkpoint blob: u32 overflow"};
    return static_cast<std::uint32_t>(v);
  }

  std::int64_t i64() {
    const std::uint64_t z = u64();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  double f64() {
    need(8);
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return std::bit_cast<double>(bits);
  }

  // A view into the input span, valid as long as it is.
  std::string_view bytes() {
    const std::uint64_t n = u64();
    need(n);
    const std::string_view s(
        reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::uint64_t n) const {
    if (n > data_.size() - pos_)
      throw BlobError{"checkpoint blob: truncated input"};
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cellscope

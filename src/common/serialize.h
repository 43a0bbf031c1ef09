// Copyright 2026 The netbone Authors.
//
// Bounds-checked binary (de)serialization primitives for the snapshot
// subsystem. ByteWriter appends fixed-width little-endian scalars and
// length-prefixed blobs to a growable buffer; ByteReader walks the same
// layout back, returning Status::Corruption on any underflow instead of
// ever reading past the end — the snapshot restore path is fed adversarial
// (truncated, bit-flipped) bytes by design and must stay memory-safe for
// every input.
//
// Only trivially-copyable element types may go through the Pod helpers;
// floating-point values round-trip bitwise (no text formatting), which is
// what the bit-identical warm-restart contract requires. The library
// targets little-endian hosts; the snapshot file header tags byte order
// explicitly so a foreign-endian file is rejected as NotSupported rather
// than decoded wrong.

#ifndef NETBONE_COMMON_SERIALIZE_H_
#define NETBONE_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"

namespace netbone {

/// Append-only binary buffer. All multi-byte scalars are stored in the
/// host's native byte order (little-endian on every supported target; the
/// file-level endianness tag enforces this on read).
class ByteWriter {
 public:
  void U32(uint32_t value) { Raw(&value, sizeof(value)); }
  void U64(uint64_t value) { Raw(&value, sizeof(value)); }
  void I64(int64_t value) { Raw(&value, sizeof(value)); }
  void F64(double value) { Raw(&value, sizeof(value)); }

  /// Length-prefixed (u64) byte string.
  void Str(const std::string& s) {
    U64(static_cast<uint64_t>(s.size()));
    Raw(s.data(), s.size());
  }

  /// Length-prefixed (u64 element count) run of a trivially-copyable
  /// element type — a vector or a span — written as one contiguous memcpy.
  template <std::ranges::contiguous_range Range>
  void PodVec(const Range& v) {
    using T = std::ranges::range_value_t<Range>;
    static_assert(std::is_trivially_copyable_v<T>);
    U64(static_cast<uint64_t>(std::ranges::size(v)));
    Raw(std::ranges::data(v), std::ranges::size(v) * sizeof(T));
  }

  /// Raw bytes, no length prefix.
  void Raw(const void* data, size_t len) {
    if (len == 0) return;
    const size_t old = buffer_.size();
    buffer_.resize(old + len);
    std::memcpy(buffer_.data() + old, data, len);
  }

  const std::string& buffer() const { return buffer_; }
  std::string&& TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Cursor over a read-only byte span. Every accessor checks remaining
/// bytes first and returns Corruption on underflow; the cursor never moves
/// past the end, so a failed read leaves the reader in a defined state.
class ByteReader {
 public:
  explicit ByteReader(std::span<const unsigned char> data) : data_(data) {}
  ByteReader(const void* data, size_t len)
      : data_(static_cast<const unsigned char*>(data), len) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  Result<uint32_t> U32() { return Scalar<uint32_t>("u32"); }
  Result<uint64_t> U64() { return Scalar<uint64_t>("u64"); }
  Result<int64_t> I64() { return Scalar<int64_t>("i64"); }
  Result<double> F64() { return Scalar<double>("f64"); }

  Result<std::string> Str() {
    NETBONE_ASSIGN_OR_RETURN(const uint64_t len, U64());
    if (len > remaining()) {
      return Status::Corruption("string length overruns buffer");
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return s;
  }

  template <typename T>
  Result<std::vector<T>> PodVec() {
    static_assert(std::is_trivially_copyable_v<T>);
    NETBONE_ASSIGN_OR_RETURN(const uint64_t count, U64());
    if (count > remaining() / sizeof(T)) {
      return Status::Corruption("vector length overruns buffer");
    }
    std::vector<T> v(static_cast<size_t>(count));
    if (count > 0) {
      std::memcpy(v.data(), data_.data() + pos_,
                  static_cast<size_t>(count) * sizeof(T));
      pos_ += static_cast<size_t>(count) * sizeof(T);
    }
    return v;
  }

 private:
  template <typename T>
  Result<T> Scalar(const char* what) {
    if (sizeof(T) > remaining()) {
      return Status::Corruption(std::string("truncated ") + what);
    }
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::span<const unsigned char> data_;
  size_t pos_ = 0;
};

}  // namespace netbone

#endif  // NETBONE_COMMON_SERIALIZE_H_

// Raw byte buffer with network-order (big-endian) accessors.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

namespace adcp::packet {

/// Growable byte buffer. All multi-byte reads/writes are big-endian, as on
/// the wire. Out-of-range access is a programming error (asserted).
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t size) : bytes_(size, 0) {}
  explicit Buffer(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] bool empty() const { return bytes_.empty(); }
  void resize(std::size_t n) { bytes_.resize(n, 0); }

  /// Drops the contents but keeps the allocation, so a recycled buffer can
  /// be refilled without touching the heap (see packet::Pool).
  void clear() { bytes_.clear(); }
  void reserve(std::size_t n) { bytes_.reserve(n); }
  [[nodiscard]] std::size_t capacity() const { return bytes_.capacity(); }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return bytes_; }
  [[nodiscard]] std::span<std::uint8_t> bytes() { return bytes_; }

  /// Reads `width` bytes (1..8) at `offset` as a big-endian unsigned value.
  /// The common widths compile to a single fixed-size load plus byteswap;
  /// a runtime-width byte loop here dominates parser cost otherwise.
  [[nodiscard]] std::uint64_t read(std::size_t offset, std::size_t width) const {
    assert(width >= 1 && width <= 8 && offset + width <= bytes_.size());
    const std::uint8_t* p = bytes_.data() + offset;
    switch (width) {
      case 1:
        return *p;
      case 2: {
        std::uint16_t v;
        std::memcpy(&v, p, 2);
        return to_big(v);
      }
      case 4: {
        std::uint32_t v;
        std::memcpy(&v, p, 4);
        return to_big(v);
      }
      case 8: {
        std::uint64_t v;
        std::memcpy(&v, p, 8);
        return to_big(v);
      }
      default: {
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < width; ++i) v = (v << 8) | p[i];
        return v;
      }
    }
  }

  /// Writes the low `width` bytes of `value` big-endian at `offset`.
  void write(std::size_t offset, std::size_t width, std::uint64_t value) {
    assert(width >= 1 && width <= 8 && offset + width <= bytes_.size());
    std::uint8_t* p = bytes_.data() + offset;
    switch (width) {
      case 1:
        *p = static_cast<std::uint8_t>(value);
        return;
      case 2: {
        const std::uint16_t v = to_big(static_cast<std::uint16_t>(value));
        std::memcpy(p, &v, 2);
        return;
      }
      case 4: {
        const std::uint32_t v = to_big(static_cast<std::uint32_t>(value));
        std::memcpy(p, &v, 4);
        return;
      }
      case 8: {
        const std::uint64_t v = to_big(value);
        std::memcpy(p, &v, 8);
        return;
      }
      default:
        for (std::size_t i = 0; i < width; ++i) {
          p[width - 1 - i] = static_cast<std::uint8_t>(value & 0xff);
          value >>= 8;
        }
    }
  }

  /// Appends the low `width` bytes of `value` big-endian; returns the offset
  /// the value was written at.
  std::size_t append(std::size_t width, std::uint64_t value) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + width);
    write(at, width, value);
    return at;
  }

  bool operator==(const Buffer&) const = default;

 private:
  /// Host value <-> big-endian (wire) representation of the same width.
  template <typename U>
  static U to_big(U v) {
    if constexpr (std::endian::native == std::endian::little) {
      if constexpr (sizeof(U) == 2) return __builtin_bswap16(v);
      if constexpr (sizeof(U) == 4) return __builtin_bswap32(v);
      if constexpr (sizeof(U) == 8) return __builtin_bswap64(v);
    }
    return v;
  }

  std::vector<std::uint8_t> bytes_;
};

}  // namespace adcp::packet

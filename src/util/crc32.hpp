// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) with a compile-time
// table. Used by the write-ahead log to checksum each record so replay can
// distinguish a torn/corrupted tail from committed data.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace cpkcore {

namespace detail {

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}();

}  // namespace detail

/// Incremental CRC-32. value() may be read at any point; updates may
/// continue afterwards.
class Crc32 {
 public:
  void update(const void* data, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint32_t c = state_;
    for (std::size_t i = 0; i < len; ++i) {
      c = detail::kCrc32Table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
    }
    state_ = c;
  }

  [[nodiscard]] std::uint32_t value() const { return ~state_; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience.
inline std::uint32_t crc32(const void* data, std::size_t len) {
  Crc32 crc;
  crc.update(data, len);
  return crc.value();
}

}  // namespace cpkcore

// CRC-32C (Castagnoli) checksums for on-disk artifacts.
//
// The columnar catalog (catalog/) protects every binary file — dictionary
// blobs and column segments — with a trailing CRC so a torn write, a bad
// disk, or a partially synced page is detected at open time instead of
// surfacing later as silently wrong resolver output. CRC-32C is used (not
// the zip polynomial) for its better error-detection properties on the
// short-burst corruptions file systems actually produce. This is a portable
// table-driven software implementation that consumes eight bytes per step
// (slicing-by-8), with no ISA-specific path.

#ifndef DISTINCT_COMMON_CRC32_H_
#define DISTINCT_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace distinct {

/// CRC-32C of `data`, starting from `seed` (pass a previous result to
/// checksum data arriving in chunks; 0 for a fresh computation).
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32c(std::string_view data, uint32_t seed = 0) {
  return Crc32c(data.data(), data.size(), seed);
}

/// Incremental helper for streamed writes: feed chunks, read value().
class Crc32cAccumulator {
 public:
  void Update(const void* data, size_t size) {
    crc_ = Crc32c(data, size, crc_);
  }
  void Update(std::string_view data) { Update(data.data(), data.size()); }
  uint32_t value() const { return crc_; }
  void Reset() { crc_ = 0; }

 private:
  uint32_t crc_ = 0;
};

}  // namespace distinct

#endif  // DISTINCT_COMMON_CRC32_H_

#include "common/crc32.h"

namespace distinct {
namespace {

/// Lookup tables for the reflected CRC-32C polynomial 0x82F63B78, built
/// once at first use. entries[0] advances the CRC over one byte;
/// entries[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance it over eight bytes at once (slicing-by-8).
struct Crc32cTables {
  uint32_t entries[8][256];

  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0x82f63b78u : 0u);
      }
      entries[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xffu];
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

/// The little-endian 32-bit word at `p`, whatever the host's byte order
/// and `p`'s alignment.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  const auto& t = Tables().entries;
  const auto* bytes = static_cast<const unsigned char*>(data);
  // The standard pre/post inversion makes appended zero bytes detectable
  // and lets chunked updates compose: Crc32c(ab) == Crc32c(b, Crc32c(a)).
  uint32_t crc = ~seed;
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ crc;
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xffu];
  }
  return ~crc;
}

}  // namespace distinct

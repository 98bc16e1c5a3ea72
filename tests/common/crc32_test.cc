#include "common/crc32.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace distinct {
namespace {

TEST(Crc32cTest, KnownVector) {
  // The CRC-32C check value from RFC 3720 §B.4 ("123456789").
  EXPECT_EQ(Crc32c(std::string_view("123456789")), 0xE3069283u);
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(Crc32c(std::string_view("")), 0u);
}

TEST(Crc32cTest, ChunkedUpdatesComposeToWholeBufferValue) {
  const std::string data =
      "the quick brown fox jumps over the lazy dog 0123456789";
  const uint32_t whole = Crc32c(std::string_view(data));
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t first = Crc32c(data.data(), split);
    const uint32_t chunked = Crc32c(data.data() + split,
                                    data.size() - split, first);
    EXPECT_EQ(chunked, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, AccumulatorMatchesOneShot) {
  const std::string data(10000, 'x');
  Crc32cAccumulator accumulator;
  accumulator.Update(data.data(), 1);
  accumulator.Update(data.data() + 1, 4095);
  accumulator.Update(data.data() + 4096, data.size() - 4096);
  EXPECT_EQ(accumulator.value(), Crc32c(std::string_view(data)));
  accumulator.Reset();
  EXPECT_EQ(accumulator.value(), 0u);
}

/// The one-table, one-byte-per-step CRC-32C: the definition the sliced
/// implementation must reproduce.
uint32_t BytewiseCrc32c(const unsigned char* data, size_t size,
                        uint32_t seed) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0x82f63b78u : 0u);
    }
    table[i] = crc;
  }
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xffu];
  }
  return ~crc;
}

std::vector<unsigned char> SeededBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& byte : bytes) {
    byte = static_cast<unsigned char>(rng.Next());
  }
  return bytes;
}

// Every length up to 1,024 at every start offset 0..7 (every alignment and
// every tail length the eight-byte steps leave), from a fresh and from a
// nonzero seed.
TEST(Crc32cTest, MatchesTheBytewiseDefinitionAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buffer = SeededBytes(1024 + 8, 7);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 1024; ++size) {
      const unsigned char* data = buffer.data() + offset;
      ASSERT_EQ(Crc32c(data, size), BytewiseCrc32c(data, size, 0))
          << "offset " << offset << " size " << size;
      ASSERT_EQ(Crc32c(data, size, 0x9e3779b9u),
                BytewiseCrc32c(data, size, 0x9e3779b9u))
          << "offset " << offset << " size " << size;
    }
  }
}

// Seeded random chunkings of one buffer compose to its one-shot value,
// whichever side of an eight-byte step each cut falls.
TEST(Crc32cTest, RandomChunkingsComposeToTheOneShotValue) {
  const std::vector<unsigned char> buffer = SeededBytes(4099, 11);
  const uint32_t whole = BytewiseCrc32c(buffer.data(), buffer.size(), 0);
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    Crc32cAccumulator accumulator;
    size_t done = 0;
    while (done < buffer.size()) {
      const auto chunk = static_cast<size_t>(rng.UniformInt(
          0, std::min<int64_t>(40, static_cast<int64_t>(buffer.size() - done))));
      accumulator.Update(buffer.data() + done, chunk);
      done += chunk;
    }
    ASSERT_EQ(accumulator.value(), whole) << "trial " << trial;
  }
}

TEST(Crc32cTest, SingleBitFlipChangesValue) {
  std::string data = "columnar catalog segment payload";
  const uint32_t before = Crc32c(std::string_view(data));
  data[7] ^= 0x01;
  EXPECT_NE(Crc32c(std::string_view(data)), before);
}

}  // namespace
}  // namespace distinct

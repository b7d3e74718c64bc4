#include "src/common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace aft {

namespace {

// The 8-byte step loads two native u32s; the WAL and frame encoders already
// write their integers little-endian the same way.
static_assert(std::endian::native == std::endian::little,
              "the slicing-by-8 CRC kernel assumes a little-endian host");

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

// kTables[0] is the classic bytewise table of the reflected polynomial;
// kTables[k][b] is the CRC contribution of byte b followed by k zero bytes,
// so one step folds 8 input bytes with 8 independent lookups.
constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kTables = BuildCrcTables();

}  // namespace

uint32_t Crc32Begin() { return 0xFFFFFFFFu; }

uint32_t Crc32Feed(uint32_t state, const void* data, size_t len) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (; len >= 8; bytes += 8, len -= 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, bytes, 4);
    std::memcpy(&hi, bytes + 4, 4);
    lo ^= state;
    state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    state = (state >> 8) ^ kTables[0][(state ^ *bytes) & 0xFFu];
  }
  return state;
}

uint32_t Crc32End(uint32_t state) { return state ^ 0xFFFFFFFFu; }

uint32_t Crc32(std::string_view data) {
  return Crc32End(Crc32Feed(Crc32Begin(), data.data(), data.size()));
}

}  // namespace aft

#include "src/common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define MC_CRC32C_X86 1
#else
#define MC_CRC32C_X86 0
#endif

namespace minicrypt {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

// Slice-by-8 tables: table[0] is the classic byte table, table[k] advances a
// byte that sits k positions deeper in a 8-byte chunk.
struct Tables {
  uint32_t t[8][256];
};

Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    tables.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      tables.t[k][i] = (tables.t[k - 1][i] >> 8) ^ tables.t[0][tables.t[k - 1][i] & 0xff];
    }
  }
  return tables;
}

const Tables& GetTables() {
  static const Tables tables = BuildTables();
  return tables;
}

uint32_t ExtendScalar(uint32_t crc, const char* p, size_t n) {
  const Tables& tb = GetTables();
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    chunk ^= crc;  // little-endian: low 4 bytes absorb the running crc
    crc = tb.t[7][chunk & 0xff] ^ tb.t[6][(chunk >> 8) & 0xff] ^
          tb.t[5][(chunk >> 16) & 0xff] ^ tb.t[4][(chunk >> 24) & 0xff] ^
          tb.t[3][(chunk >> 32) & 0xff] ^ tb.t[2][(chunk >> 40) & 0xff] ^
          tb.t[1][(chunk >> 48) & 0xff] ^ tb.t[0][(chunk >> 56) & 0xff];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ static_cast<unsigned char>(*p++)) & 0xff];
  }
  return crc;
}

#if MC_CRC32C_X86
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t crc, const char* p,
                                                          size_t n) {
  uint64_t crc64 = crc;
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    crc64 = _mm_crc32_u64(crc64, chunk);
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<uint32_t>(crc64);
  while (n-- > 0) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*p++));
  }
  return crc32;
}
#endif

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, std::string_view data) {
  crc = ~crc;
#if MC_CRC32C_X86
  // Probed once: the CRC32 instruction when the CPU has SSE4.2.
  static const bool hardware = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  if (hardware) {
    return ~ExtendHardware(crc, data.data(), data.size());
  }
#endif
  return ~ExtendScalar(crc, data.data(), data.size());
}

uint32_t Crc32c(std::string_view data) { return Crc32cExtend(0, data); }

uint32_t Crc32cScalar(std::string_view data) {
  return ~ExtendScalar(0xFFFFFFFFu, data.data(), data.size());
}

}  // namespace minicrypt

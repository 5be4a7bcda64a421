// CRC32C (Castagnoli, reflected polynomial 0x1EDC6F41): an SSE4.2 path using
// the CRC32 instruction, picked once per process when the CPU has it, and a
// portable slice-by-8 table walk everywhere else. Both produce identical
// values for identical input (tests/coding_test.cc).
//
// Used for the SSTable v2 per-block checksums — the fetch-path cost every
// read pays — where the hardware path runs at tens of GB/s vs ~1 GB/s for
// the table walk. The commit log keeps its original zlib CRC32 framing.

#ifndef MINICRYPT_SRC_COMMON_CRC32C_H_
#define MINICRYPT_SRC_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace minicrypt {

// CRC32C of `data` (init 0xFFFFFFFF, final xor 0xFFFFFFFF — the standard
// iSCSI/RFC 3720 parameterization; Crc32c("123456789") == 0xE3069283).
uint32_t Crc32c(std::string_view data);

// Extends a running CRC32C with more bytes: Crc32c(a+b) ==
// Crc32cExtend(Crc32c(a), b).
uint32_t Crc32cExtend(uint32_t crc, std::string_view data);

// The slice-by-8 path regardless of the CPU, for the differential test.
uint32_t Crc32cScalar(std::string_view data);

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_COMMON_CRC32C_H_

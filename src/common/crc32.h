// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the Ethernet/zip
// checksum used by both the wire protocol (src/net/frame.h) and the durable
// WAL (src/storage/wal.h). One implementation so a frame CRC and a log-record
// CRC can never drift; the net layer re-exports these under aft::net for
// source compatibility.
//
// The kernel is portable slicing-by-8: eight 256-entry tables derived from
// the polynomial, one step per 8 bytes (two little-endian u32 loads) and a
// bytewise tail. Its value for every input and every split into Crc32Feed
// calls equals the bytewise definition `crc = (crc >> 8) ^ T[(crc ^ b) & 0xFF]`
// (pinned against that loop by Crc32Test in tests/common_test.cc).

#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace aft {

// Streaming interface for payloads held as segment chains / iovec lists:
// feed spans in order, no coalescing.
// `Crc32End(Crc32Feed(Crc32Begin(), d, n))` == `Crc32({d, n})`.
uint32_t Crc32Begin();
uint32_t Crc32Feed(uint32_t state, const void* data, size_t len);
uint32_t Crc32End(uint32_t state);

// One-shot convenience over a contiguous buffer.
uint32_t Crc32(std::string_view data);

}  // namespace aft

#endif  // SRC_COMMON_CRC32_H_

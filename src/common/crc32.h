#ifndef EDGESHED_COMMON_CRC32_H_
#define EDGESHED_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace edgeshed {

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial 0xEDB88320), the integrity
/// checksum shared by the net wire protocol (net/wire.h frame payloads) and
/// the graph snapshot header and chunk table (graph/snapshot_format.h). It
/// lives in common/ so both can use one implementation without a dependency
/// cycle.
///
/// One-shot:
///   uint32_t crc = Crc32(payload);
///
/// Incremental (streaming writers/readers):
///   uint32_t state = kCrc32Init;
///   state = Crc32Update(state, chunk1, len1);
///   state = Crc32Update(state, chunk2, len2);
///   uint32_t crc = Crc32Finalize(state);

/// Initial state for incremental computation.
inline constexpr uint32_t kCrc32Init = 0xFFFFFFFFu;

/// Folds `len` bytes at `data` into `state`. Associative with itself only in
/// sequence: feed the bytes in stream order.
uint32_t Crc32Update(uint32_t state, const void* data, size_t len);

/// Final xor; after this the value is the standard CRC-32 of the stream.
inline constexpr uint32_t Crc32Finalize(uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of `data`.
inline uint32_t Crc32(std::string_view data) {
  return Crc32Finalize(Crc32Update(kCrc32Init, data.data(), data.size()));
}

}  // namespace edgeshed

#endif  // EDGESHED_COMMON_CRC32_H_

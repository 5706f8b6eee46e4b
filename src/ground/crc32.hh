/**
 * @file
 * CRC-32 (IEEE 802.3) checksum.
 *
 * Integrity primitive shared by the downlink packet framing, the
 * on-disk archive format and the EPT wire frames: every payload that
 * crosses the space-ground boundary, the memory-disk boundary or the
 * network carries a CRC so corruption is detected instead of decoded
 * as garbage. The stored and wire values are normative (see
 * docs/ARCHITECTURE.md); CRC-32C (Castagnoli, the SSE4.2 `crc32`
 * instruction) would be a different checksum and is not acceptable.
 *
 * Both functions run the dispatched `codec::kernels::KernelTable::crc32`
 * of the active SIMD level: a PCLMULQDQ fold at AVX2, slicing-by-8 at
 * scalar, SSE2 and NEON (the `EARTHPLUS_SIMD=scalar` twin). Every
 * level returns the same value for the same bytes.
 */

#ifndef EARTHPLUS_GROUND_CRC32_HH
#define EARTHPLUS_GROUND_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace earthplus::ground {

/**
 * CRC-32 of a byte range (IEEE 802.3 polynomial, reflected,
 * initial/final XOR 0xFFFFFFFF — the zlib/Ethernet convention, so
 * crc32("123456789") == 0xCBF43926).
 */
uint32_t crc32(const uint8_t *data, size_t size);

/** Incremental variant: feed `prev` the previous return value. */
uint32_t crc32Update(uint32_t prev, const uint8_t *data, size_t size);

} // namespace earthplus::ground

#endif // EARTHPLUS_GROUND_CRC32_HH

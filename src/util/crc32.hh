/**
 * @file
 * CRC-32 (IEEE 802.3) checksum, dispatched on the SIMD level.
 *
 * Integrity primitive shared by the downlink packet framing, the
 * on-disk archive format and the EPT wire frames: every payload that
 * crosses the space-ground boundary, the memory-disk boundary or the
 * network carries a CRC so corruption is detected instead of decoded
 * as garbage. The stored and wire values are normative (see
 * docs/ARCHITECTURE.md); CRC-32C (Castagnoli, the SSE4.2 `crc32`
 * instruction) would be a different checksum and is not acceptable.
 *
 * crc32() and crc32Update() run the kernel of the active level
 * (util::simd, so `EARTHPLUS_SIMD` picks it): a PCLMULQDQ fold at
 * AVX2, slicing-by-8 at scalar, SSE2 and NEON. The checksum is an
 * integer function of the bytes, so every level returns the same
 * value by construction.
 */

#ifndef EARTHPLUS_UTIL_CRC32_HH
#define EARTHPLUS_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>

#include "util/simd.hh"

namespace earthplus::util {

/**
 * A CRC-32 kernel: the CRC of `n` bytes continuing from `prev`, the
 * CRC of the bytes before `data` (0 for none), so
 * f(f(0, a), b) == f(0, a ++ b).
 */
using Crc32Fn = uint32_t (*)(uint32_t prev, const uint8_t *data, size_t n);

/**
 * CRC-32 of a byte range (IEEE 802.3 polynomial, reflected,
 * initial/final XOR 0xFFFFFFFF — the zlib/Ethernet convention, so
 * crc32("123456789") == 0xCBF43926).
 */
uint32_t crc32(const uint8_t *data, size_t size);

/** Incremental variant: feed `prev` the previous return value. */
uint32_t crc32Update(uint32_t prev, const uint8_t *data, size_t size);

/**
 * The kernel of one dispatch level, or nullptr when that level was not
 * compiled in or the CPU cannot run it. Tests and benches compare the
 * levels through it.
 */
Crc32Fn crc32ForLevel(simd::Level level);

} // namespace earthplus::util

#endif // EARTHPLUS_UTIL_CRC32_HH

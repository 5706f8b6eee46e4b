/**
 * @file
 * Internals shared by the two CRC-32 translation units: crc32.cc (the
 * portable slicing-by-8 and the dispatch) and crc32_avx2.cc (the
 * PCLMULQDQ fold, built with its own ISA flags). Included by nothing
 * else.
 */

#ifndef EARTHPLUS_UTIL_CRC32_IMPL_HH
#define EARTHPLUS_UTIL_CRC32_IMPL_HH

#include "util/crc32.hh"

namespace earthplus::util::detail {

/**
 * Slicing-by-8 over the working register (the CRC with its 0xFFFFFFFF
 * pre/post inversion stripped): eight table lookups per eight bytes,
 * then bytewise for the tail. The AVX2 fold runs it for short inputs
 * and tails.
 */
uint32_t crc32Slice8(uint32_t reg, const uint8_t *data, size_t n);

/** The AVX2 level's kernel, or nullptr when it was not compiled in. */
Crc32Fn crc32Avx2();

} // namespace earthplus::util::detail

#endif // EARTHPLUS_UTIL_CRC32_IMPL_HH

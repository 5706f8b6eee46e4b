/**
 * @file
 * The AVX2 level's CRC-32: a PCLMULQDQ fold. This translation unit is
 * built with `-mavx2 -mpclmul` on x86 (see CMakeLists.txt); whether
 * the running CPU may use it, which requires both AVX2 and PCLMULQDQ,
 * is decided at runtime by util::simd::cpuSupports. On builds without
 * the flags crc32Avx2() returns nullptr.
 */

#include "util/crc32_impl.hh"

#if defined(__AVX2__) && defined(__PCLMUL__)

#include <immintrin.h>

namespace earthplus::util::detail {

namespace {

/**
 * CRC-32 register over `n` bytes, `n` a multiple of 16 and at least
 * 64, by carry-less multiplication: four 128-bit lanes fold 64 bytes
 * per step, are folded into one, which folds the remaining 16-byte
 * blocks, and a Barrett reduction takes the 64-bit remainder to 32
 * bits (Gopal et al., "Fast CRC Computation for Generic Polynomials
 * Using PCLMULQDQ Instruction", Intel 2009). The constants are those
 * of zlib's crc32_simd for the reflected polynomial 0xEDB88320: the
 * bit-reflected multipliers for folding across 512 and 128 bits and
 * for the 64-to-32-bit step, then P and floor(x^64 / P) for the
 * reduction. Every load stays inside [data, data + n).
 */
uint32_t
crc32Fold(uint32_t reg, const uint8_t *data, size_t n)
{
    auto load = [](const uint8_t *p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    };
    // A value congruent to `acc` moved forward by the fold distance
    // whose multipliers `k` holds, plus the block `next` found there.
    auto fold = [](__m128i acc, __m128i k, __m128i next) {
        __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
        __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
        return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
    };
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load(data),
                               _mm_cvtsi32_si128(static_cast<int>(reg)));
    __m128i x2 = load(data + 16);
    __m128i x3 = load(data + 32);
    __m128i x4 = load(data + 48);
    data += 64;
    n -= 64;
    for (; n >= 64; data += 64, n -= 64) {
        x1 = fold(x1, k1k2, load(data));
        x2 = fold(x2, k1k2, load(data + 16));
        x3 = fold(x3, k1k2, load(data + 32));
        x4 = fold(x4, k1k2, load(data + 48));
    }
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for (; n >= 16; data += 16, n -= 16)
        x1 = fold(x1, k3k4, load(data));

    // 128 -> 64 bits.
    x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5k0, 0x00);
    x1 = _mm_xor_si128(x1, x2);

    // Barrett reduction to 32 bits.
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

/**
 * The AVX2 level's kernel: the fold over the largest
 * multiple of 16 bytes when there are at least 64, slicing-by-8 for
 * the rest (and for short inputs, where the fold's setup dominates).
 */
uint32_t
crc32Clmul(uint32_t prev, const uint8_t *data, size_t n)
{
    uint32_t reg = ~prev;
    if (n >= 64) {
        size_t body = n & ~static_cast<size_t>(15);
        reg = crc32Fold(reg, data, body);
        data += body;
        n -= body;
    }
    return ~crc32Slice8(reg, data, n);
}

} // anonymous namespace

Crc32Fn
crc32Avx2()
{
    return &crc32Clmul;
}

} // namespace earthplus::util::detail

#else // !(__AVX2__ && __PCLMUL__)

namespace earthplus::util::detail {

Crc32Fn
crc32Avx2()
{
    return nullptr;
}

} // namespace earthplus::util::detail

#endif

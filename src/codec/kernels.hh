/**
 * @file
 * Vectorized codec kernels with runtime dispatch.
 *
 * One KernelTable per instruction set (scalar, SSE2, AVX2, NEON); all
 * tables are instantiated from the same generic implementation
 * (kernels_impl.hh) at different vector widths, so every lane of every
 * vector kernel performs exactly the single-precision IEEE dataflow of
 * the scalar kernel. Combined with `-ffp-contract=off` (no FMA
 * fusion), this makes encoded streams byte-identical across dispatch
 * levels — the golden guarantee the codec tests assert.
 *
 * The tables cover the per-tile hot paths of the one codec mode: the
 * CDF 9/7 lifting passes (columns processed in vector-width batches
 * instead of strided single lanes), the deadzone quantizer and its
 * midpoint dequantizer, the bitplane masks of the entropy coder and
 * the pixel<->coefficient conversion loops.
 */

#ifndef EARTHPLUS_CODEC_KERNELS_HH
#define EARTHPLUS_CODEC_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/simd.hh"

namespace earthplus::codec::kernels {

/**
 * Function table for one dispatch level.
 *
 * DWT entries transform one decomposition level of a row-major buffer
 * in place: `fullWidth` is the allocation stride, (w, h) the active
 * top-left rectangle. Pointer-pair kernels operate on `n` contiguous
 * elements.
 */
struct KernelTable
{
    /** Dispatch level this table was compiled for. */
    util::simd::Level level;
    /** Float lanes per vector op (1 for scalar). */
    int laneWidth;

    // --- 2D lifting passes, one decomposition level each ---
    /** Forward CDF 9/7: rows then columns. */
    void (*fwd97)(float *data, int fullWidth, int w, int h);
    /** Inverse CDF 9/7: columns then rows. */
    void (*inv97)(float *data, int fullWidth, int w, int h);

    // --- quantize / dequantize ---
    /** mag = trunc(|c| * inv), sign = (c < 0). */
    void (*quantF32)(const float *coeffs, size_t n, float inv,
                     uint32_t *mag, uint8_t *sign);
    /**
     * Midpoint dequantizer to float: 0 when mag == 0, else
     * +/-(mag + 2^(low-1)) * step.
     */
    void (*dequant97)(const uint32_t *mag, const uint8_t *sign,
                      const uint8_t *low, size_t n, float step,
                      float *coeffs);
    /** Maximum magnitude (0 for empty input). */
    uint32_t (*maxU32)(const uint32_t *mag, size_t n);

    // --- word-mask helpers for the bitset bitplane engine ---
    /**
     * Packed bitplane mask: bit i of `out` (LSB-first within uint64_t
     * words) is `(mag[i] >> plane) & 1`. Bits past `n` in the last
     * word are zero. The tile coder calls this once per (row, plane)
     * so the coding passes read one word per 64 coefficients instead
     * of one magnitude load per pixel.
     */
    void (*bitplaneMask)(const uint32_t *mag, size_t n, int plane,
                         uint64_t *out);

    // --- pixel <-> coefficient conversions ---
    /** out = in - 0.5 (center pixels before the transform). */
    void (*centerF)(const float *in, size_t n, float *out);
    /** out = clamp(in + 0.5, lo, hi). */
    void (*uncenterClampF)(const float *in, size_t n, float lo, float hi,
                           float *out);
};

/** Table for the currently active dispatch level (util::simd). */
const KernelTable &active();

/**
 * Table for a specific level, or nullptr when that level was not
 * compiled in or the CPU cannot run it.
 */
const KernelTable *forLevel(util::simd::Level level);

/** Levels with a usable table on this machine, weakest first. */
std::vector<util::simd::Level> availableLevels();

} // namespace earthplus::codec::kernels

#endif // EARTHPLUS_CODEC_KERNELS_HH

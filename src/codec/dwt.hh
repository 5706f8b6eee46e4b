/**
 * @file
 * 2D discrete wavelet transform via lifting.
 *
 * Implements the codec's one transform, JPEG 2000's lossy CDF 9/7
 * wavelet in single precision, with whole-sample symmetric boundary
 * extension, arbitrary signal lengths, and in-place Mallat subband
 * layout (LL recursion in the top-left corner).
 */

#ifndef EARTHPLUS_CODEC_DWT_HH
#define EARTHPLUS_CODEC_DWT_HH

#include <cstdint>
#include <vector>

namespace earthplus::codec {

/**
 * Forward 2D CDF 9/7 transform, in place.
 *
 * @param data Row-major float buffer of size width*height.
 * @param width Buffer width.
 * @param height Buffer height.
 * @param levels Number of dyadic decomposition levels (>= 0). Levels
 *               beyond what the size supports degenerate gracefully
 *               (1-pixel rows/columns pass through).
 */
void forwardDwt97(std::vector<float> &data, int width, int height,
                  int levels);

/** Inverse of forwardDwt97(). */
void inverseDwt97(std::vector<float> &data, int width, int height,
                  int levels);

/**
 * Per-coefficient subband orientation for the in-place Mallat layout.
 *
 * @return One code per coefficient: 0 = LL, 1 = HL (horizontal detail),
 *         2 = LH, 3 = HH. Used for entropy-coding context selection.
 */
std::vector<uint8_t> subbandOrientation(int width, int height, int levels);

} // namespace earthplus::codec

#endif // EARTHPLUS_CODEC_DWT_HH

/**
 * @file
 * 2D discrete wavelet transforms via lifting.
 *
 * Implements the two JPEG-2000 wavelets: the lossy CDF 9/7 (float) and
 * the reversible LeGall 5/3 (integer), both with whole-sample symmetric
 * boundary extension, arbitrary signal lengths, and in-place Mallat
 * subband layout (LL recursion in the top-left corner). The codec has
 * one transform per mode: lossy tiles use 9/7, lossless tiles 5/3
 * (TileCoderParams::lossless).
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
 * Forward 2D LeGall 5/3 transform on integers, in place. Exactly
 * reversible by inverseDwt53().
 */
void forwardDwt53(std::vector<int32_t> &data, int width, int height,
                  int levels);

/** Inverse of forwardDwt53(). */
void inverseDwt53(std::vector<int32_t> &data, int width, int height,
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

/**
 * @file
 * Image quality metrics (MSE, PSNR, mean absolute difference).
 *
 * PSNR is the paper's quality metric (§2.2); the mask overloads restrict
 * the computation to valid (e.g. non-cloudy) pixels so every compression
 * scheme is scored over the same support.
 */

#ifndef EARTHPLUS_RASTER_METRICS_HH
#define EARTHPLUS_RASTER_METRICS_HH

#include "raster/bitmap.hh"
#include "raster/plane.hh"

namespace earthplus::raster {

/**
 * Mean squared error between two same-sized planes.
 *
 * @param valid Optional per-pixel validity mask; when non-null only set
 *              pixels contribute. Returns 0 when no pixel is valid.
 */
double mse(const Plane &a, const Plane &b, const Bitmap *valid = nullptr);

/**
 * Peak signal-to-noise ratio in dB for peak value `peak` (pixels are
 * normalized to [0,1], so the default peak is 1).
 *
 * Returns +infinity for identical inputs.
 */
double psnr(const Plane &a, const Plane &b, const Bitmap *valid = nullptr,
            double peak = 1.0);

/** Mean absolute pixel difference, optionally masked. */
/**
 * Lowest psnr() over the full-width row bands of `bandRows` rows (the
 * last band may be shorter): the fidelity of the worst-served strip,
 * which a whole-image PSNR averages away.
 */
double worstBandPsnr(const Plane &a, const Plane &b, int bandRows);

double meanAbsDiff(const Plane &a, const Plane &b,
                   const Bitmap *valid = nullptr);

} // namespace earthplus::raster

#endif // EARTHPLUS_RASTER_METRICS_HH

/**
 * @file
 * Downsampling and upsampling of raster planes and masks.
 *
 * Earth+ downsamples reference images before uplinking them (§4.3) and
 * downsamples the captured image to the same resolution before change
 * detection; cloud detection also runs on a downsampled capture (§5).
 */

#ifndef EARTHPLUS_RASTER_RESAMPLE_HH
#define EARTHPLUS_RASTER_RESAMPLE_HH

#include "raster/bitmap.hh"
#include "raster/plane.hh"

namespace earthplus::raster {

/**
 * Box-filter downsample by an integer factor.
 *
 * Each output pixel is the mean of the corresponding factor x factor
 * input block; partial blocks at the right/bottom edges average the
 * available pixels.
 *
 * @param src Source plane.
 * @param factor Downsampling factor per dimension (>= 1).
 */
Plane downsample(const Plane &src, int factor);

/**
 * Downsample a per-pixel mask into a per-low-res-pixel coverage
 * fraction plane (each output pixel = fraction of set input pixels in
 * its block).
 */
Plane downsampleFraction(const Bitmap &src, int factor);

/**
 * Downsample a per-pixel mask with an "any set" policy: the output
 * pixel is set when any input pixel in its block is set. Conservative
 * for cloud masks.
 */
Bitmap downsampleAny(const Bitmap &src, int factor);

} // namespace earthplus::raster

#endif // EARTHPLUS_RASTER_RESAMPLE_HH

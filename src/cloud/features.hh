/**
 * @file
 * Per-pixel features shared by the cloud detectors.
 *
 * Both detectors work from two physical signals: clouds are bright in
 * the visible bands and cold/dark in the shortwave-infrared bands (§5:
 * "the temperature of heavy clouds significantly differs from the
 * nearby ground and can be easily detected using the InfraRed band").
 */

#ifndef EARTHPLUS_CLOUD_FEATURES_HH
#define EARTHPLUS_CLOUD_FEATURES_HH

#include <vector>

#include "raster/image.hh"
#include "synth/bands.hh"

namespace earthplus::cloud {

/** Which bands serve which detection role. */
struct BandRoles
{
    /** Indices of visible/ground bands (brightness signal). */
    std::vector<int> visible;
    /** Indices of cold-cloud (SWIR/IR) bands. */
    std::vector<int> infrared;
};

/**
 * Classify bands into detection roles from their specs.
 *
 * Atmospheric bands (B1/B9/B10) are excluded from the brightness
 * signal; coldClouds bands form the infrared signal. When a dataset
 * has no infrared band the detector falls back to brightness only.
 */
BandRoles rolesFor(const std::vector<synth::BandSpec> &bands);

/**
 * Mean of the given bands per pixel.
 *
 * @param img Source image.
 * @param bandIdx Band indices to average (empty -> zero plane).
 */
raster::Plane bandMean(const raster::Image &img,
                       const std::vector<int> &bandIdx);

/**
 * bandMean() box-downsampled by `factor`, built straight from the
 * bands without a full-resolution mean plane. Bit-identical to
 * raster::downsample(bandMean(img, bandIdx), factor): the same float
 * mean per pixel and the same double block sum, in the same order.
 * Low-resolution rows fan across the pool.
 *
 * @param factor Downsampling factor per dimension (>= 1).
 */
raster::Plane bandMeanDownsample(const raster::Image &img,
                                 const std::vector<int> &bandIdx,
                                 int factor);

/**
 * Local standard deviation over a (2r+1)^2 window (box statistics).
 *
 * Clouds are spatially smooth; terrain (including snow-covered
 * terrain) is not. Used as a texture veto.
 */
raster::Plane localStddev(const raster::Plane &p, int radius);

/** Box blur with a (2r+1)^2 window (used by the accurate detector). */
raster::Plane boxBlur(const raster::Plane &p, int radius);

} // namespace earthplus::cloud

#endif // EARTHPLUS_CLOUD_FEATURES_HH

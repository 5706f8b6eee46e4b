/**
 * @file
 * Spectral band models.
 *
 * Satellite imagery carries many bands with very different change
 * behaviour (§5, "Handling different bands"): ground-coupled bands
 * (RGB, SWIR) show land-cover changes, vegetation red-edge bands add a
 * strong seasonal component, and atmospheric bands (water vapor,
 * cirrus) barely react to ground changes at all. Each BandSpec captures
 * those couplings for the synthetic sensor.
 */

#ifndef EARTHPLUS_SYNTH_BANDS_HH
#define EARTHPLUS_SYNTH_BANDS_HH

#include <string>
#include <vector>

namespace earthplus::synth {

/** Behavioural parameters of one spectral band. */
struct BandSpec
{
    /** Display name, e.g. "B8a". */
    std::string name;
    /** How strongly discrete ground changes appear (0..~1.2). */
    double groundCoupling = 1.0;
    /** Seasonal modulation amplitude scale. */
    double seasonalAmplitude = 0.05;
    /** Static terrain texture amplitude. */
    double detailScale = 0.15;
    /** Weight of the smooth atmospheric component. */
    double atmosphere = 0.0;
    /** Apparent reflectance of cloud in this band. */
    double cloudValue = 0.85;
    /**
     * True for bands where heavy clouds read much colder/darker than
     * ground (the infrared signal the cheap on-board detector uses, §5).
     */
    bool coldClouds = false;
};

/** The 13 Sentinel-2 MSI bands (B1..B12 including B8a). */
std::vector<BandSpec> sentinel2Bands();

/** The 4 Doves/PlanetScope bands (RGB + NIR). */
std::vector<BandSpec> dovesBands();

} // namespace earthplus::synth

#endif // EARTHPLUS_SYNTH_BANDS_HH

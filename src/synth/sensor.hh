/**
 * @file
 * Capture simulation: clouds, illumination and sensor noise.
 *
 * Two consecutive captures of the same ground differ substantially in
 * raw pixel values because of cloud and illumination differences
 * (paper Fig. 9); CaptureSimulator reproduces exactly those nuisance
 * processes on top of SceneModel's ground truth. Illumination acts
 * linearly on pixel values (per [72], which justifies Earth+'s linear-
 * regression alignment).
 */

#ifndef EARTHPLUS_SYNTH_SENSOR_HH
#define EARTHPLUS_SYNTH_SENSOR_HH

#include <cstdint>

#include "raster/bitmap.hh"
#include "raster/image.hh"
#include "synth/scene.hh"
#include "synth/weather.hh"

namespace earthplus::synth {

/** One simulated capture with its ground-truth annotations. */
struct Capture
{
    /** Sensed multi-band image (clouds + illumination + noise). */
    raster::Image image;
    /** Ground-truth cloud mask (opacity > 0.1). */
    raster::Bitmap cloudTruth;
    /** Ground-truth pixel cloud coverage fraction. */
    double cloudCoverage = 0.0;
    /** Applied illumination gain. */
    double illumGain = 1.0;
    /** Applied illumination bias. */
    double illumBias = 0.0;
};

/** Capture nuisance-process configuration. */
struct SensorParams
{
    /** Master seed for all per-capture draws. */
    uint64_t seed = 0xcab1e5;
};

/**
 * Renders captures of one scene under a shared weather process.
 */
class CaptureSimulator
{
  public:
    /**
     * @param scene Ground-truth scene (borrowed; must outlive this).
     * @param weather Daily coverage process (borrowed).
     * @param params Nuisance-process parameters.
     */
    CaptureSimulator(const SceneModel &scene, const WeatherProcess &weather,
                     const SensorParams &params = SensorParams());

    /**
     * Render a full multi-band capture.
     *
     * Cloud fields are shared by every satellite on the same integer
     * day; illumination and noise are satellite-specific.
     */
    Capture capture(double day, int satelliteId) const;

    /** Render a single band (identical pixels to capture().band(b)). */
    Capture captureBand(double day, int satelliteId, int b) const;

    /** Cloud opacity field for a day (shared across satellites). */
    raster::Plane cloudOpacity(double day) const;

    const SceneModel &scene() const { return scene_; }

  private:
    const SceneModel &scene_;
    const WeatherProcess &weather_;
    SensorParams params_;

    void renderBand(Capture &cap, const raster::Plane &opacity,
                    double day, int satelliteId, int b) const;
    void annotate(Capture &cap, const raster::Plane &opacity, double day,
                  int satelliteId) const;
};

} // namespace earthplus::synth

#endif // EARTHPLUS_SYNTH_SENSOR_HH

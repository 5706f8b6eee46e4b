#include "synth/sensor.hh"

#include <algorithm>
#include <cmath>

#include "synth/noise.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace earthplus::synth {

namespace {

/** Opacity above which a pixel counts as cloud in the ground truth. */
constexpr float kCloudTruthOpacity = 0.1f;
/**
 * Std-dev of the illumination gain around 1. Sun-synchronous orbits
 * revisit at the same local time (§2.1 fn. 2), so gain variation
 * between captures is modest — but still large enough that unaligned
 * differencing misfires (Fig. 9).
 */
constexpr double kGainSigma = 0.025;
/** Std-dev of the illumination bias around 0. */
constexpr double kBiasSigma = 0.008;
/** Cloud-field base spatial frequency (cycles per pixel). */
constexpr double kCloudFrequency = 1.0 / 56.0;
/** Additive Gaussian sensor noise sigma, every band. */
constexpr double kNoiseSigma = 0.004;

uint64_t
captureSalt(int locationId, double day, int satelliteId)
{
    uint64_t d = static_cast<uint64_t>(
        static_cast<int64_t>(std::floor(day * 16.0)));
    return (static_cast<uint64_t>(static_cast<uint32_t>(locationId))
            << 40) ^
           (static_cast<uint64_t>(static_cast<uint32_t>(satelliteId))
            << 20) ^ d;
}

} // anonymous namespace

CaptureSimulator::CaptureSimulator(const SceneModel &scene,
                                   const WeatherProcess &weather,
                                   const SensorParams &params)
    : scene_(scene), weather_(weather), params_(params)
{
}

raster::Plane
CaptureSimulator::cloudOpacity(double day) const
{
    int w = scene_.config().width;
    int h = scene_.config().height;
    int dayIdx = static_cast<int>(std::floor(day));
    double coverage =
        weather_.coverage(scene_.profile().locationId, dayIdx);

    // Weather (and thus the cloud field) is shared by all satellites
    // imaging this location on this day.
    uint64_t seed = params_.seed ^
                    (static_cast<uint64_t>(static_cast<uint32_t>(
                         scene_.profile().locationId)) << 32) ^
                    static_cast<uint64_t>(static_cast<uint32_t>(dayIdx));
    raster::Plane field = fbmPlane(w, h, kCloudFrequency, 4, seed);

    // Pick the threshold as the (1 - coverage) quantile of the field so
    // the realized pixel coverage matches the drawn coverage.
    std::vector<float> sorted(field.data());
    std::sort(sorted.begin(), sorted.end());
    size_t idx = static_cast<size_t>(
        std::clamp(1.0 - coverage, 0.0, 1.0) *
        static_cast<double>(sorted.size() - 1));
    float threshold = sorted[idx];

    raster::Plane opacity(w, h);
    for (int y = 0; y < h; ++y) {
        const float *src = field.row(y);
        float *dst = opacity.row(y);
        for (int x = 0; x < w; ++x) {
            // Soft shoulder: cores are opaque, edges are translucent.
            float t = (src[x] - threshold) / 0.06f;
            dst[x] = std::clamp(t, 0.0f, 1.0f);
        }
    }
    return opacity;
}

void
CaptureSimulator::annotate(Capture &cap, const raster::Plane &opacity,
                           double day, int satelliteId) const
{
    int w = opacity.width();
    int h = opacity.height();
    cap.cloudTruth = raster::Bitmap(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            cap.cloudTruth.set(x, y, opacity.at(x, y) > kCloudTruthOpacity);
    cap.cloudCoverage = cap.cloudTruth.fractionSet();

    Rng rng = Rng(params_.seed).fork(
        captureSalt(scene_.profile().locationId, day, satelliteId));
    cap.illumGain = std::clamp(rng.normal(1.0, kGainSigma),
                               0.8, 1.2);
    cap.illumBias = std::clamp(rng.normal(0.0, kBiasSigma),
                               -0.06, 0.06);
    cap.image.info().locationId = scene_.profile().locationId;
    cap.image.info().satelliteId = satelliteId;
    cap.image.info().captureDay = day;
}

void
CaptureSimulator::renderBand(Capture &cap, const raster::Plane &opacity,
                             double day, int satelliteId, int b) const
{
    const BandSpec &band =
        scene_.config().bands[static_cast<size_t>(b)];
    raster::Plane ground = scene_.groundTruth(day, b);
    int w = ground.width();
    int h = ground.height();

    Rng rng = Rng(params_.seed ^ 0x0015e001ULL).fork(
        captureSalt(scene_.profile().locationId, day, satelliteId) ^
        (static_cast<uint64_t>(b) << 56));

    float cloudVal = static_cast<float>(band.cloudValue);
    float gain = static_cast<float>(cap.illumGain);
    float bias = static_cast<float>(cap.illumBias);
    float sigma = static_cast<float>(kNoiseSigma);
    for (int y = 0; y < h; ++y) {
        float *row = ground.row(y);
        const float *op = opacity.row(y);
        for (int x = 0; x < w; ++x) {
            float o = op[x];
            float v = row[x] * (1.0f - o) + cloudVal * o;
            v = gain * v + bias +
                static_cast<float>(rng.normal(0.0, sigma));
            row[x] = v;
        }
    }
    ground.clampTo(0.0f, 1.0f);
    cap.image.addBand(std::move(ground));
}

Capture
CaptureSimulator::capture(double day, int satelliteId) const
{
    Capture cap;
    raster::Plane opacity = cloudOpacity(day);
    annotate(cap, opacity, day, satelliteId);
    for (int b = 0; b < static_cast<int>(scene_.config().bands.size());
         ++b)
        renderBand(cap, opacity, day, satelliteId, b);
    return cap;
}

Capture
CaptureSimulator::captureBand(double day, int satelliteId, int b) const
{
    EP_ASSERT(b >= 0 &&
              b < static_cast<int>(scene_.config().bands.size()),
              "band %d out of range", b);
    Capture cap;
    raster::Plane opacity = cloudOpacity(day);
    annotate(cap, opacity, day, satelliteId);
    // Each band derives an independent noise stream from its index, so
    // a band rendered in isolation is pixel-identical to the same band
    // inside a full capture.
    renderBand(cap, opacity, day, satelliteId, b);
    return cap;
}

} // namespace earthplus::synth

#include "cloud/detector.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/parallel.hh"

namespace earthplus::cloud {

CloudDetection
CheapCloudDetector::detect(const raster::Image &img,
                           const std::vector<synth::BandSpec> &bands,
                           const raster::TileGrid &grid) const
{
    EP_ASSERT(img.bandCount() == static_cast<int>(bands.size()),
              "band spec count %zu != image bands %d", bands.size(),
              img.bandCount());
    BandRoles roles = rolesFor(bands);
    bool hasIr = !roles.infrared.empty();

    // Decision tree on the downsampled capture: only tile-level
    // decisions are needed, so analysis at low resolution is enough
    // (§5) and keeps the on-board cost low. The low-res signals are
    // built straight from the bands, with no full-resolution mean
    // planes.
    constexpr int f = kAnalysisFactor;
    raster::Plane visLow = bandMeanDownsample(img, roles.visible, f);
    raster::Plane irLow =
        hasIr ? bandMeanDownsample(img, roles.infrared, f) : raster::Plane();

    // One job per low-res row: the decision tree classifies the row's
    // cells straight into one full-resolution mask row, which is then
    // copied whole to every other row of its block. Rows are
    // independent (byte-per-pixel mask), so they fan across the pool.
    CloudDetection det;
    int w = img.width();
    int h = img.height();
    det.pixelMask = raster::Bitmap(w, h);
    util::ThreadPool::global().parallelFor(
        0, visLow.height(), [&](int64_t yl) {
            int ly = static_cast<int>(yl);
            uint8_t *first = det.pixelMask.row(ly * f);
            for (int lx = 0; lx < visLow.width(); ++lx) {
                float vis = visLow.at(lx, ly);
                bool cloudy;
                if (hasIr) {
                    float ratio = vis / std::max(irLow.at(lx, ly), 1e-3f);
                    // Bright AND much brighter than IR: heavy cold
                    // cloud; a second branch admits very bright
                    // moderate clouds.
                    cloudy = (vis > kMinVisible && ratio > kMinRatio) ||
                             (vis > kMidVisible && ratio > kMidRatio);
                } else {
                    cloudy = vis > kMinVisibleNoIr;
                }
                std::fill(first + lx * f, first + std::min((lx + 1) * f, w),
                          static_cast<uint8_t>(cloudy));
            }
            for (int y = ly * f + 1; y < std::min((ly + 1) * f, h); ++y)
                std::copy(first, first + w, det.pixelMask.row(y));
        });
    det.coverage = det.pixelMask.fractionSet();
    det.tileMask = raster::tileMaskFromBitmap(det.pixelMask, grid,
                                              kTileCloudFraction);
    return det;
}

CloudDetection
AccurateCloudDetector::detect(const raster::Image &img,
                              const std::vector<synth::BandSpec> &bands,
                              const raster::TileGrid &grid) const
{
    EP_ASSERT(img.bandCount() == static_cast<int>(bands.size()),
              "band spec count %zu != image bands %d", bands.size(),
              img.bandCount());
    BandRoles roles = rolesFor(bands);
    raster::Plane visible = bandMean(img, roles.visible);
    raster::Plane infrared = bandMean(img, roles.infrared);
    bool hasIr = !roles.infrared.empty();

    // Initial opacity estimate: clouds raise the visible signal and
    // depress the IR signal; the difference is approximately linear in
    // optical thickness for our rendering model. A low quantile of the
    // per-image difference calibrates away global band offsets
    // (seasonal vegetation response, illumination): ground pixels
    // dominate the low end even in substantially cloudy scenes, since
    // clouds only push the difference up.
    int w = img.width();
    int h = img.height();
    float offset = 0.0f;
    if (hasIr) {
        std::vector<float> sample;
        sample.reserve(4096);
        int step = std::max(1, (w * h) / 4096);
        for (int i = 0; i < w * h; i += step)
            sample.push_back(visible.data()[static_cast<size_t>(i)] -
                             infrared.data()[static_cast<size_t>(i)]);
        size_t q = sample.size() / 7; // ~15th percentile
        std::nth_element(sample.begin(), sample.begin() +
                         static_cast<ptrdiff_t>(q), sample.end());
        // Ground band offsets stay below ~0.2 even in deep winter; a
        // larger quantile means the scene is overwhelmingly cloudy and
        // must not be calibrated away.
        offset = std::clamp(sample[q], 0.0f, 0.2f);
    }
    raster::Plane score(w, h);
    for (int y = 0; y < h; ++y) {
        float *row = score.row(y);
        const float *vis = visible.row(y);
        const float *ir = infrared.row(y);
        for (int x = 0; x < w; ++x) {
            float s = hasIr ? (vis[x] - ir[x] - offset) / 0.65f
                            : (vis[x] - 0.55f) / 0.35f;
            row[x] = std::clamp(s, 0.0f, 1.0f);
        }
    }

    // Deep smoothing stack: each layer is a convolution followed by a
    // soft nonlinearity; this integrates spatial context so thin cloud
    // edges connected to cores survive while isolated bright pixels
    // wash out. (This is the deliberately compute-heavy stage standing
    // in for the paper's tens-of-layers neural detector [74].)
    raster::Plane ctx = score;
    for (int layer = 0; layer < kConvLayers; ++layer) {
        ctx = boxBlur(ctx, kKernelRadius);
        util::ThreadPool::global().parallelFor(
            0, static_cast<int64_t>(ctx.data().size()),
            [&](int64_t i) {
                // Blend context back with the raw score and squash.
                float v = 0.6f * ctx.data()[static_cast<size_t>(i)] +
                          0.4f * score.data()[static_cast<size_t>(i)];
                ctx.data()[static_cast<size_t>(i)] =
                    v / (1.0f + std::abs(v - 0.5f) * 0.1f);
            },
            4096);
    }

    // Texture veto: clouds are smooth at the 5x5 scale, terrain
    // (including snow-covered terrain) is not.
    raster::Plane texture = localStddev(visible, 2);

    CloudDetection det;
    det.pixelMask = raster::Bitmap(w, h);
    util::ThreadPool::global().parallelFor(0, h, [&](int64_t y) {
        for (int x = 0; x < w; ++x) {
            bool cloudy =
                ctx.at(x, static_cast<int>(y)) >
                    static_cast<float>(kScoreThreshold) &&
                texture.at(x, static_cast<int>(y)) <
                    static_cast<float>(kTextureVeto);
            det.pixelMask.set(x, static_cast<int>(y), cloudy);
        }
    });
    det.coverage = det.pixelMask.fractionSet();
    det.tileMask = raster::tileMaskFromBitmap(det.pixelMask, grid,
                                              kTileCloudFraction);
    return det;
}

DetectionQuality
scoreDetection(const raster::Bitmap &detected, const raster::Bitmap &truth)
{
    EP_ASSERT(detected.width() == truth.width() &&
              detected.height() == truth.height(),
              "mask shape mismatch");
    size_t tp = 0, fp = 0, fn = 0;
    for (int y = 0; y < detected.height(); ++y) {
        for (int x = 0; x < detected.width(); ++x) {
            bool d = detected.get(x, y);
            bool t = truth.get(x, y);
            tp += (d && t) ? 1 : 0;
            fp += (d && !t) ? 1 : 0;
            fn += (!d && t) ? 1 : 0;
        }
    }
    DetectionQuality q;
    q.precision = (tp + fp) ? static_cast<double>(tp) /
                              static_cast<double>(tp + fp) : 1.0;
    q.recall = (tp + fn) ? static_cast<double>(tp) /
                           static_cast<double>(tp + fn) : 0.0;
    return q;
}

} // namespace earthplus::cloud

/**
 * @file
 * Tests for cloud detection: feature extraction, the cheap on-board
 * decision tree (precision requirement from §5) and the accurate
 * detector (recall + runtime asymmetry).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "cloud/detector.hh"
#include "cloud/features.hh"
#include "raster/resample.hh"
#include "synth/dataset.hh"
#include "synth/scene.hh"
#include "synth/sensor.hh"
#include "synth/weather.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

using namespace earthplus;
using namespace earthplus::cloud;

namespace {

struct CloudFixture
{
    synth::LocationProfile profile;
    synth::SceneConfig config;
    std::unique_ptr<synth::SceneModel> scene;
    std::unique_ptr<synth::WeatherProcess> weather;
    std::unique_ptr<synth::CaptureSimulator> sim;

    explicit CloudFixture(uint64_t seed = 0xc1)
    {
        profile.locationId = 0;
        profile.name = "t";
        profile.mix = {0.1, 0.3, 0.1, 0.3, 0.2, 0.0};
        profile.seed = seed;
        config.width = 192;
        config.height = 192;
        config.bands = synth::dovesBands();
        scene = std::make_unique<synth::SceneModel>(profile, config);
        weather = std::make_unique<synth::WeatherProcess>();
        sim = std::make_unique<synth::CaptureSimulator>(*scene, *weather);
    }

    /** First day in [0, limit) whose coverage falls inside a range. */
    int
    dayWithCoverage(double lo, double hi, int limit = 200) const
    {
        for (int d = 0; d < limit; ++d) {
            double c = weather->coverage(0, d);
            if (c >= lo && c <= hi)
                return d;
        }
        return -1;
    }
};

/** `bands` planes of independent uniform noise in [0, 1). */
raster::Image
noiseImage(int w, int h, int bands, uint64_t seed)
{
    Rng rng(seed);
    raster::Image img(w, h, bands);
    for (int b = 0; b < bands; ++b)
        for (float &v : img.band(b).data())
            v = static_cast<float>(rng.uniform());
    return img;
}

bool
sameBits(const raster::Plane &a, const raster::Plane &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

/**
 * The cheap detector composed from full-resolution parts: bandMean()
 * planes, raster::downsample(), and the decision expanded pixel by
 * pixel. CheapCloudDetector::detect must give exactly this.
 */
CloudDetection
cheapByFullResolutionParts(const raster::Image &img,
                           const std::vector<synth::BandSpec> &bands,
                           const raster::TileGrid &grid)
{
    using D = CheapCloudDetector;
    BandRoles roles = rolesFor(bands);
    bool hasIr = !roles.infrared.empty();
    int f = D::kAnalysisFactor;
    raster::Plane visLow = raster::downsample(bandMean(img, roles.visible), f);
    raster::Plane irLow = raster::downsample(bandMean(img, roles.infrared), f);
    CloudDetection det;
    det.pixelMask = raster::Bitmap(img.width(), img.height());
    for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
            float vis = visLow.at(x / f, y / f);
            bool cloudy;
            if (hasIr) {
                float ratio = vis / std::max(irLow.at(x / f, y / f), 1e-3f);
                cloudy = (vis > D::kMinVisible && ratio > D::kMinRatio) ||
                         (vis > D::kMidVisible && ratio > D::kMidRatio);
            } else {
                cloudy = vis > D::kMinVisibleNoIr;
            }
            det.pixelMask.set(x, y, cloudy);
        }
    }
    det.coverage = det.pixelMask.fractionSet();
    det.tileMask =
        raster::tileMaskFromBitmap(det.pixelMask, grid, D::kTileCloudFraction);
    return det;
}

} // namespace

TEST(Features, RolesClassifyBands)
{
    auto s2 = synth::sentinel2Bands();
    BandRoles roles = rolesFor(s2);
    EXPECT_EQ(roles.infrared.size(), 2u); // B11, B12
    // Visible excludes atmospheric bands B1/B9/B10 and the IR bands.
    EXPECT_EQ(roles.visible.size(), 13u - 2u - 3u);

    auto doves = synth::dovesBands();
    BandRoles droles = rolesFor(doves);
    EXPECT_EQ(droles.infrared.size(), 1u);
    EXPECT_EQ(droles.visible.size(), 3u);
}

TEST(Features, BandMeanAverages)
{
    raster::Image img(4, 4, 2);
    img.band(0).fill(0.2f);
    img.band(1).fill(0.6f);
    raster::Plane m = bandMean(img, {0, 1});
    EXPECT_FLOAT_EQ(m.at(0, 0), 0.4f);
    raster::Plane empty = bandMean(img, {});
    EXPECT_FLOAT_EQ(empty.at(0, 0), 0.0f);
}

TEST(Features, BandMeanDownsampleMatchesDownsampledBandMean)
{
    // The analysis-resolution helper builds the low-res plane straight
    // from the bands; it must equal the full-resolution composition bit
    // for bit, including partial blocks where the factor does not
    // divide the size, on one lane and on four.
    struct Case
    {
        int w, h, factor;
    };
    const Case cases[] = {{512, 512, 8}, {500, 300, 8}, {7, 5, 3},
                          {33, 17, 1}};
    const std::vector<int> bandSets[] = {{2}, {0, 1, 3}, {}};
    for (int threads : {1, 4}) {
        util::ThreadPool::setGlobalThreads(threads);
        for (const Case &c : cases) {
            raster::Image img = noiseImage(
                c.w, c.h, 4, static_cast<uint64_t>(c.w * 31 + c.h));
            for (const std::vector<int> &idx : bandSets) {
                SCOPED_TRACE(testing::Message()
                             << "threads=" << threads << " " << c.w << "x"
                             << c.h << " f=" << c.factor << " bands="
                             << idx.size());
                EXPECT_TRUE(sameBits(
                    bandMeanDownsample(img, idx, c.factor),
                    raster::downsample(bandMean(img, idx), c.factor)));
            }
        }
    }
    util::ThreadPool::setGlobalThreads(
        util::ThreadPool::defaultThreadCount());
}

TEST(Features, BoxBlurPreservesConstants)
{
    raster::Plane p(16, 16, 0.3f);
    raster::Plane b = boxBlur(p, 3);
    for (float v : b.data())
        EXPECT_NEAR(v, 0.3f, 1e-6);
}

TEST(Features, LocalStddevSeparatesFlatFromTextured)
{
    raster::Plane flat(32, 32, 0.5f);
    raster::Plane checker(32, 32);
    for (int y = 0; y < 32; ++y)
        for (int x = 0; x < 32; ++x)
            checker.at(x, y) = ((x + y) % 2) ? 1.0f : 0.0f;
    raster::Plane sf = localStddev(flat, 2);
    raster::Plane sc = localStddev(checker, 2);
    EXPECT_LT(sf.at(16, 16), 1e-5);
    EXPECT_GT(sc.at(16, 16), 0.4f);
}

TEST(ScoreDetection, PrecisionRecallMath)
{
    raster::Bitmap truth(4, 1, false);
    truth.set(0, 0, true);
    truth.set(1, 0, true);
    raster::Bitmap det(4, 1, false);
    det.set(1, 0, true);
    det.set(2, 0, true);
    DetectionQuality q = scoreDetection(det, truth);
    EXPECT_DOUBLE_EQ(q.precision, 0.5);
    EXPECT_DOUBLE_EQ(q.recall, 0.5);
}

TEST(CheapDetector, HighPrecisionOnCloudyScenes)
{
    // §5: "over 99% of areas detected are actually cloudy". Aggregate
    // over several cloudy captures.
    CloudFixture f;
    CheapCloudDetector det;
    raster::TileGrid grid(f.config.width, f.config.height, 64);
    size_t tp = 0, fp = 0;
    int tested = 0;
    for (int d = 0; d < 150 && tested < 8; ++d) {
        double cov = f.weather->coverage(0, d);
        if (cov < 0.3)
            continue;
        ++tested;
        synth::Capture cap = f.sim->capture(static_cast<double>(d), 0);
        CloudDetection cd = det.detect(cap.image, f.config.bands, grid);
        for (int y = 0; y < f.config.height; ++y) {
            for (int x = 0; x < f.config.width; ++x) {
                if (!cd.pixelMask.get(x, y))
                    continue;
                if (cap.cloudTruth.get(x, y))
                    ++tp;
                else
                    ++fp;
            }
        }
    }
    ASSERT_GT(tested, 3);
    ASSERT_GT(tp + fp, 0u);
    double precision = static_cast<double>(tp) /
                       static_cast<double>(tp + fp);
    EXPECT_GT(precision, 0.97);
}

TEST(CheapDetector, FindsHeavyCloudCores)
{
    CloudFixture f;
    CheapCloudDetector det;
    raster::TileGrid grid(f.config.width, f.config.height, 64);
    int d = f.dayWithCoverage(0.5, 0.9);
    ASSERT_GE(d, 0);
    synth::Capture cap = f.sim->capture(static_cast<double>(d), 0);
    CloudDetection cd = det.detect(cap.image, f.config.bands, grid);
    DetectionQuality q = scoreDetection(cd.pixelMask, cap.cloudTruth);
    // Recall is intentionally partial (only easy clouds) but not zero.
    EXPECT_GT(q.recall, 0.25);
    EXPECT_GT(cd.coverage, 0.1);
}

TEST(CheapDetector, QuietOnClearScenes)
{
    CloudFixture f;
    CheapCloudDetector det;
    raster::TileGrid grid(f.config.width, f.config.height, 64);
    int d = f.dayWithCoverage(0.0, 0.005);
    ASSERT_GE(d, 0);
    synth::Capture cap = f.sim->capture(static_cast<double>(d), 0);
    CloudDetection cd = det.detect(cap.image, f.config.bands, grid);
    EXPECT_LT(cd.coverage, 0.02);
}

TEST(CheapDetector, MatchesFullResolutionComposition)
{
    // detect() screens at analysis resolution only; its pixel mask,
    // coverage and tile mask must equal the full-resolution composition
    // on rich-content captures: RGB + SWIR (the ingest benchmark's
    // bands), all 13 Sentinel-2 bands, and RGB alone (no IR branch),
    // over clear and cloudy days.
    synth::DatasetSpec spec = synth::richContentDataset(256, 256);
    const std::vector<synth::BandSpec> bandSets[] = {
        {spec.bands[1], spec.bands[2], spec.bands[3], spec.bands[11]},
        spec.bands,
        {spec.bands[1], spec.bands[2], spec.bands[3]}};
    CheapCloudDetector det;
    raster::TileGrid grid(spec.width, spec.height, spec.tileSize);
    int cloudy = 0;
    int captures = 0;
    for (const std::vector<synth::BandSpec> &bands : bandSets) {
        for (size_t loc : {size_t(0), size_t(3)}) {
            synth::SceneConfig sc;
            sc.width = spec.width;
            sc.height = spec.height;
            sc.tileSize = spec.tileSize;
            sc.bands = bands;
            synth::SceneModel scene(spec.locations[loc], sc);
            synth::WeatherProcess weather;
            synth::CaptureSimulator sim(scene, weather);
            for (double day : {20.0, 170.0, 245.0, 320.0}) {
                SCOPED_TRACE(testing::Message()
                             << bands.size() << " bands, location " << loc
                             << ", day " << day);
                synth::Capture cap = sim.capture(day, 0);
                CloudDetection got = det.detect(cap.image, bands, grid);
                CloudDetection want =
                    cheapByFullResolutionParts(cap.image, bands, grid);
                EXPECT_EQ(got.pixelMask.data(), want.pixelMask.data());
                EXPECT_EQ(got.coverage, want.coverage);
                for (int t = 0; t < grid.tileCount(); ++t)
                    EXPECT_EQ(got.tileMask.get(t), want.tileMask.get(t))
                        << "tile " << t;
                cloudy += want.coverage > 0.0;
                ++captures;
            }
        }
    }
    // The sweep covers both clear and cloudy captures.
    EXPECT_GT(cloudy, 0);
    EXPECT_LT(cloudy, captures);
}

TEST(AccurateDetector, TracksCoverageAcrossRegimes)
{
    CloudFixture f;
    AccurateCloudDetector det;
    raster::TileGrid grid(f.config.width, f.config.height, 64);
    int tested = 0;
    for (int d = 0; d < 150 && tested < 6; ++d) {
        double cov = f.weather->coverage(0, d);
        if (cov < 0.05 || cov > 0.9)
            continue;
        ++tested;
        synth::Capture cap = f.sim->capture(static_cast<double>(d), 0);
        CloudDetection cd = det.detect(cap.image, f.config.bands, grid);
        EXPECT_NEAR(cd.coverage, cap.cloudCoverage, 0.25)
            << "day " << d << " truth " << cap.cloudCoverage;
    }
    ASSERT_GT(tested, 3);
}

TEST(Detectors, CoverageEstimatesAreUsable)
{
    // Both detectors must estimate coverage well enough for the >50%
    // drop decision (§5); our synthetic clouds are bright/cold enough
    // that even the decision tree tracks coverage closely.
    CloudFixture f;
    CheapCloudDetector cheap;
    AccurateCloudDetector accurate;
    raster::TileGrid grid(f.config.width, f.config.height, 64);
    double cheapErr = 0.0, accurateErr = 0.0;
    int tested = 0;
    for (int d = 0; d < 250 && tested < 8; ++d) {
        double cov = f.weather->coverage(0, d);
        if (cov < 0.03 || cov > 0.30)
            continue;
        ++tested;
        synth::Capture cap = f.sim->capture(static_cast<double>(d), 0);
        double c = cheap.detect(cap.image, f.config.bands,
                                grid).coverage;
        double a = accurate.detect(cap.image, f.config.bands,
                                   grid).coverage;
        cheapErr += std::abs(c - cap.cloudCoverage);
        accurateErr += std::abs(a - cap.cloudCoverage);
    }
    ASSERT_GT(tested, 4);
    EXPECT_LT(cheapErr / tested, 0.15);
    EXPECT_LT(accurateErr / tested, 0.15);
}

TEST(AccurateDetector, CostsMoreComputeThanCheap)
{
    // The Fig. 16 premise: the accurate detector is the expensive
    // stage. Compare wall-clock on the same capture.
    CloudFixture f;
    CheapCloudDetector cheap;
    AccurateCloudDetector accurate;
    raster::TileGrid grid(f.config.width, f.config.height, 64);
    synth::Capture cap = f.sim->capture(5.0, 0);

    auto timeIt = [&](auto &det) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < 3; ++i)
            det.detect(cap.image, f.config.bands, grid);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0).count();
    };
    double cheapSec = timeIt(cheap);
    double accurateSec = timeIt(accurate);
    EXPECT_GT(accurateSec, 1.5 * cheapSec);
}

TEST(Detectors, WorkWithSentinel2Bands)
{
    synth::LocationProfile p;
    p.locationId = 0;
    p.name = "s2";
    p.mix = {0.1, 0.3, 0.1, 0.3, 0.2, 0.0};
    p.seed = 0x52;
    synth::SceneConfig cfg;
    cfg.width = 128;
    cfg.height = 128;
    cfg.bands = synth::sentinel2Bands();
    synth::SceneModel scene(p, cfg);
    synth::WeatherProcess weather;
    synth::CaptureSimulator sim(scene, weather);
    raster::TileGrid grid(128, 128, 64);

    synth::Capture cap = sim.capture(3.0, 0);
    CheapCloudDetector cheap;
    AccurateCloudDetector accurate;
    CloudDetection c1 = cheap.detect(cap.image, cfg.bands, grid);
    CloudDetection c2 = accurate.detect(cap.image, cfg.bands, grid);
    EXPECT_GE(c1.coverage, 0.0);
    EXPECT_GE(c2.coverage, 0.0);
}

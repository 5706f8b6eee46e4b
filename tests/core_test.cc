/**
 * @file
 * Tests for the core state machinery: reference store, on-board cache,
 * uplink planner and the Doves spec.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/doves_spec.hh"
#include "core/onboard_cache.hh"
#include "core/reference_store.hh"
#include "core/uplink_planner.hh"
#include "raster/resample.hh"
#include "util/rng.hh"

using namespace earthplus;
using namespace earthplus::core;

namespace {

raster::Image
makeImage(int loc, double day, float fill, int size = 128, int bands = 2)
{
    raster::Image img(size, size, bands);
    for (int b = 0; b < bands; ++b)
        img.band(b).fill(fill);
    img.info().locationId = loc;
    img.info().captureDay = day;
    return img;
}

raster::Image
texturedImage(int loc, double day, uint64_t seed, int size = 128,
              int bands = 2)
{
    raster::Image img(size, size, bands);
    Rng rng(seed);
    for (int b = 0; b < bands; ++b)
        for (auto &v : img.band(b).data())
            v = static_cast<float>(rng.uniform(0.2, 0.8));
    img.info().locationId = loc;
    img.info().captureDay = day;
    return img;
}

} // namespace

TEST(DovesSpecTest, Table1Constants)
{
    DovesSpec spec = dovesSpec();
    EXPECT_DOUBLE_EQ(spec.uplink.bitsPerSecond, 250e3);
    EXPECT_DOUBLE_EQ(spec.downlink.bitsPerSecond, 200e6);
    EXPECT_EQ(spec.contactsPerDay, 7);
    EXPECT_DOUBLE_EQ(spec.onboardStorageGB, 360.0);
    EXPECT_EQ(spec.imageWidth, 6600);
    EXPECT_EQ(spec.imageHeight, 4400);
    EXPECT_DOUBLE_EQ(spec.rawImageMB, 150.0);
    EXPECT_DOUBLE_EQ(spec.gsdMeters, 3.7);

    std::ostringstream os;
    printSpecTable(spec, os);
    EXPECT_NE(os.str().find("250 kbps"), std::string::npos);
    EXPECT_NE(os.str().find("360 GB"), std::string::npos);
}

TEST(ReferenceStoreTest, AcceptsOnlyCloudFreeAndFresher)
{
    ReferenceStore store(0.01);
    EXPECT_FALSE(store.has(0));

    EXPECT_FALSE(store.offer(makeImage(0, 10.0, 0.5f), 0.3)); // cloudy
    EXPECT_FALSE(store.has(0));

    EXPECT_TRUE(store.offer(makeImage(0, 10.0, 0.5f), 0.005));
    ASSERT_TRUE(store.has(0));
    EXPECT_DOUBLE_EQ(store.referenceDay(0), 10.0);

    // Older image does not replace a fresher reference.
    EXPECT_FALSE(store.offer(makeImage(0, 8.0, 0.1f), 0.0));
    EXPECT_DOUBLE_EQ(store.referenceDay(0), 10.0);

    // Fresher image does.
    EXPECT_TRUE(store.offer(makeImage(0, 20.0, 0.7f), 0.0));
    EXPECT_DOUBLE_EQ(store.referenceDay(0), 20.0);
    EXPECT_FLOAT_EQ(store.reference(0).band(0).at(0, 0), 0.7f);

    // Locations are independent.
    EXPECT_TRUE(store.offer(makeImage(1, 5.0, 0.2f), 0.0));
    EXPECT_EQ(store.size(), 2u);
}

TEST(OnboardCacheTest, InstallAndDeltaUpdate)
{
    OnboardCache cache(16, 64);
    EXPECT_FALSE(cache.has(0));

    // Low-res image: 8x8 pixels (128 / 16), tiles of 4 low-res px. An
    // all-tile update of an absent location installs it whole.
    raster::Image low(8, 8, 1);
    low.band(0).fill(0.3f);
    low.info().locationId = 0;
    low.info().captureDay = 5.0;
    cache.updateTiles(0, low, raster::TileMask(2, 2, true));
    ASSERT_TRUE(cache.has(0));
    EXPECT_DOUBLE_EQ(cache.referenceDay(0), 5.0);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.reference(0).band(0).data(), low.band(0).data());

    // Delta update: change only tile 0 (top-left 4x4 low-res block).
    raster::Image low2(8, 8, 1);
    low2.band(0).fill(0.9f);
    low2.info().locationId = 0;
    low2.info().captureDay = 9.0;
    raster::TileMask tiles(2, 2, false);
    tiles.set(0, true);
    cache.updateTiles(0, low2, tiles);

    const raster::Image &ref = cache.reference(0);
    EXPECT_FLOAT_EQ(ref.band(0).at(0, 0), 0.9f); // updated tile
    EXPECT_FLOAT_EQ(ref.band(0).at(7, 7), 0.3f); // untouched tile
    EXPECT_DOUBLE_EQ(cache.referenceDay(0), 9.0);
}

TEST(UplinkPlannerTest, InstallThenNoopThenDelta)
{
    ReferenceStore ground(0.01);
    OnboardCache cache(16, 64);
    UplinkPlanner planner;
    orbit::DailyByteBudget budget(1e9);

    // Nothing on the ground yet: no plan.
    UplinkPlan p0 = planner.planUpdate(ground, cache, 0, budget);
    EXPECT_FALSE(p0.sent);

    // First ground reference: every low-res tile goes up, charged as
    // one encode of the whole low-res image with no ROI.
    raster::Image ref1 = texturedImage(0, 10.0, 1);
    ASSERT_TRUE(ground.offer(ref1, 0.0));
    UplinkPlan p1 = planner.planUpdate(ground, cache, 0, budget);
    EXPECT_TRUE(p1.sent);
    EXPECT_GT(p1.bytes, 0.0);
    EXPECT_EQ(p1.updatedTiles.countSet(), p1.updatedTiles.count());
    EXPECT_EQ(p1.updatedTiles.count(), 4);
    raster::Image low1;
    for (int b = 0; b < ref1.bandCount(); ++b)
        low1.addBand(raster::downsample(ref1.band(b), 16));
    std::vector<codec::BandEncode> bands(
        static_cast<size_t>(low1.bandCount()));
    for (size_t b = 0; b < bands.size(); ++b) {
        bands[b].img = &low1.band(static_cast<int>(b));
        bands[b].params.bitsPerPixel = planner.params().bitsPerPixel;
        bands[b].params.tileSize = cache.lowResTileSize();
        bands[b].params.dwtLevels = 3;
    }
    double wholeBytes = 0.0;
    for (const codec::EncodedImage &enc : codec::encode(bands))
        wholeBytes += static_cast<double>(enc.totalBytes());
    EXPECT_DOUBLE_EQ(p1.bytes, wholeBytes);
    ASSERT_TRUE(cache.has(0));

    // Same reference again: cache is fresh, nothing to send.
    UplinkPlan p2 = planner.planUpdate(ground, cache, 0, budget);
    EXPECT_FALSE(p2.sent);

    // New ground reference with one modified tile region: delta
    // update, much cheaper than the install.
    raster::Image ref2 = ref1;
    ref2.info().captureDay = 20.0;
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            ref2.band(0).at(x, y) =
                std::min(1.0f, ref2.band(0).at(x, y) + 0.3f);
    ASSERT_TRUE(ground.offer(ref2, 0.0));
    UplinkPlan p3 = planner.planUpdate(ground, cache, 0, budget);
    EXPECT_TRUE(p3.sent);
    EXPECT_GT(p3.bytes, 0.0);
    EXPECT_LT(p3.bytes, p1.bytes);
    EXPECT_NEAR(p3.updatedTiles.fractionSet(), 0.25, 0.01);
    EXPECT_DOUBLE_EQ(cache.referenceDay(0), 20.0);
}

TEST(UplinkPlannerTest, BudgetExhaustionSkipsUpdate)
{
    ReferenceStore ground(0.01);
    OnboardCache cache(16, 64);
    UplinkPlanner planner;
    orbit::DailyByteBudget tiny(8.0); // almost nothing

    ASSERT_TRUE(ground.offer(texturedImage(0, 10.0, 2), 0.0));
    UplinkPlan p = planner.planUpdate(ground, cache, 0, tiny);
    EXPECT_FALSE(p.sent);
    EXPECT_TRUE(p.skippedForBudget);
    EXPECT_FALSE(cache.has(0));

    // With budget restored the same update goes through.
    orbit::DailyByteBudget ample(1e9);
    UplinkPlan p2 = planner.planUpdate(ground, cache, 0, ample);
    EXPECT_TRUE(p2.sent);
}

TEST(UplinkPlannerTest, CompressionRatioReflectsDownsampling)
{
    // Raw reference is size^2 * bands * 4 bytes; a 16x-downsampled
    // codec-compressed upload should compress by far more than 16^2.
    ReferenceStore ground(0.01);
    OnboardCache cache(16, 64);
    UplinkPlanner planner;
    orbit::DailyByteBudget budget(1e9);
    raster::Image full = texturedImage(0, 10.0, 3, 256, 4);
    ASSERT_TRUE(ground.offer(full, 0.0));
    UplinkPlan p = planner.planUpdate(ground, cache, 0, budget);
    ASSERT_TRUE(p.sent);
    EXPECT_GT(static_cast<double>(full.pixelBytes()) / p.bytes, 100.0);
}

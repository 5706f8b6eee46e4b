/**
 * @file
 * Tests for the ground-side uplink planner (§4.3). An update is one
 * low-res tile mask and its byte charge: first contact is a delta
 * against an empty cache (every tile, coded exactly like the whole
 * image), later updates carry the changed tiles, an unchanged
 * reference costs zero bytes and refreshes the day, and a budget too
 * small for the charge skips the update.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/uplink_planner.hh"
#include "orbit/links.hh"
#include "raster/resample.hh"
#include "util/rng.hh"

using namespace earthplus;
using namespace earthplus::core;

namespace {

constexpr int kSize = 128;

/** Smooth test image with per-seed content, stamped for day `day`. */
raster::Image
testImage(double day, uint64_t seed, int bands = 2)
{
    raster::Image img(kSize, kSize, bands);
    Rng rng(seed);
    for (int b = 0; b < bands; ++b) {
        raster::Plane &p = img.band(b);
        for (int y = 0; y < kSize; ++y)
            for (int x = 0; x < kSize; ++x)
                p.at(x, y) = 0.5f +
                             0.3f * std::sin((x + 7.0f * b) * 0.05f) *
                                 std::cos(y * 0.06f) +
                             static_cast<float>(rng.normal(0.0, 0.005));
        p.clampTo(0.0f, 1.0f);
    }
    img.info().locationId = 1;
    img.info().captureDay = day;
    return img;
}

/** `base` with a bright square painted into its top-left corner. */
raster::Image
withLocalChange(const raster::Image &base, double day)
{
    raster::Image img = base;
    for (int b = 0; b < img.bandCount(); ++b)
        for (int y = 0; y < 48; ++y)
            for (int x = 0; x < 48; ++x)
                img.band(b).at(x, y) = 0.95f;
    img.info().captureDay = day;
    return img;
}

} // namespace

TEST(UplinkPlanner, NoReferenceNothingToSend)
{
    ReferenceStore ground;
    OnboardCache cache(16, 64);
    UplinkPlanner planner;
    orbit::DailyByteBudget budget(1e9);
    UplinkPlan plan = planner.planUpdate(ground, cache, 1, budget);
    EXPECT_FALSE(plan.sent);
    EXPECT_FALSE(plan.skippedForBudget);
    EXPECT_DOUBLE_EQ(budget.remaining(), 1e9);
}

TEST(UplinkPlanner, FirstContactIsADeltaAgainstAnEmptyCache)
{
    ReferenceStore ground;
    raster::Image full = testImage(10.0, 1);
    ASSERT_TRUE(ground.offer(full, 0.0));
    OnboardCache cache(16, 64);
    UplinkPlanner planner;
    orbit::DailyByteBudget budget(1e9);

    UplinkPlan plan = planner.planUpdate(ground, cache, 1, budget);
    EXPECT_TRUE(plan.sent);
    EXPECT_GT(plan.bytes, 0.0);
    EXPECT_TRUE(cache.has(1));
    EXPECT_DOUBLE_EQ(cache.referenceDay(1), 10.0);
    // The install consumed exactly plan.bytes of the allowance.
    EXPECT_DOUBLE_EQ(budget.remaining(), 1e9 - plan.bytes);

    // The mask covers every low-res tile of the 8x8 low-res image
    // (2x2 tiles of 4 px).
    raster::Image lowRes;
    for (int b = 0; b < full.bandCount(); ++b)
        lowRes.addBand(raster::downsample(full.band(b), 16));
    ASSERT_EQ(plan.updatedTiles.tilesX(), 2);
    ASSERT_EQ(plan.updatedTiles.tilesY(), 2);
    EXPECT_EQ(plan.updatedTiles.countSet(), plan.updatedTiles.count());

    // Its charge is one band-list encode of the whole low-res image
    // with no ROI, and the cache holds that image exactly.
    std::vector<codec::BandEncode> bands(
        static_cast<size_t>(lowRes.bandCount()));
    for (size_t b = 0; b < bands.size(); ++b) {
        bands[b].img = &lowRes.band(static_cast<int>(b));
        bands[b].params.bitsPerPixel = planner.params().bitsPerPixel;
        bands[b].params.tileSize = cache.lowResTileSize();
        bands[b].params.dwtLevels = 3;
    }
    double wholeImageBytes = 0.0;
    for (const codec::EncodedImage &enc : codec::encode(bands))
        wholeImageBytes += static_cast<double>(enc.totalBytes());
    EXPECT_DOUBLE_EQ(plan.bytes, wholeImageBytes);
    for (int b = 0; b < lowRes.bandCount(); ++b)
        EXPECT_EQ(cache.reference(1).band(b).data(), lowRes.band(b).data());
}

TEST(UplinkPlanner, BudgetExhaustionSkipsAndKeepsCacheUsable)
{
    ReferenceStore ground;
    ASSERT_TRUE(ground.offer(testImage(10.0, 1), 0.0));
    OnboardCache cache(16, 64);
    UplinkPlanner planner;

    // A budget too small for the full install: the update is skipped,
    // nothing is consumed, the cache stays empty.
    orbit::DailyByteBudget tight(10.0);
    UplinkPlan plan = planner.planUpdate(ground, cache, 1, tight);
    EXPECT_FALSE(plan.sent);
    EXPECT_TRUE(plan.skippedForBudget);
    EXPECT_DOUBLE_EQ(plan.bytes, 0.0);
    EXPECT_FALSE(cache.has(1));
    EXPECT_DOUBLE_EQ(tight.remaining(), 10.0);

    // Install with a generous budget, then starve the delta: the
    // satellite keeps using its older cached reference (§4.3
    // technique 3).
    orbit::DailyByteBudget rich(1e9);
    ASSERT_TRUE(planner.planUpdate(ground, cache, 1, rich).sent);
    ASSERT_TRUE(ground.offer(
        withLocalChange(testImage(10.0, 1), 11.0), 0.0));
    orbit::DailyByteBudget starve(1.0);
    UplinkPlan delta = planner.planUpdate(ground, cache, 1, starve);
    EXPECT_FALSE(delta.sent);
    EXPECT_TRUE(delta.skippedForBudget);
    EXPECT_TRUE(cache.has(1));
    EXPECT_DOUBLE_EQ(cache.referenceDay(1), 10.0); // still the old one
}

TEST(UplinkPlanner, DeltaUpdateCarriesOnlyChangedTiles)
{
    ReferenceStore ground;
    raster::Image base = testImage(10.0, 1);
    ASSERT_TRUE(ground.offer(base, 0.0));
    OnboardCache cache(16, 64);
    UplinkPlanner planner;
    orbit::DailyByteBudget budget(1e12);

    UplinkPlan install = planner.planUpdate(ground, cache, 1, budget);
    ASSERT_TRUE(install.sent);

    // Change one corner; the delta touches a small tile fraction and
    // costs less than the install.
    ASSERT_TRUE(ground.offer(withLocalChange(base, 11.0), 0.0));
    UplinkPlan delta = planner.planUpdate(ground, cache, 1, budget);
    EXPECT_TRUE(delta.sent);
    EXPECT_GT(delta.updatedTiles.fractionSet(), 0.0);
    EXPECT_LT(delta.updatedTiles.fractionSet(), 0.5);
    EXPECT_LT(delta.bytes, install.bytes);
    EXPECT_DOUBLE_EQ(cache.referenceDay(1), 11.0);
}

TEST(UplinkPlanner, UnchangedContentRefreshesTimestampForFree)
{
    ReferenceStore ground;
    raster::Image base = testImage(10.0, 1);
    ASSERT_TRUE(ground.offer(base, 0.0));
    OnboardCache cache(16, 64);
    UplinkPlanner planner;
    orbit::DailyByteBudget budget(1e12);
    ASSERT_TRUE(planner.planUpdate(ground, cache, 1, budget).sent);

    // Identical pixels, newer day: no tiles cross the delta threshold,
    // the update costs zero bytes but refreshes the age accounting.
    raster::Image same = base;
    same.info().captureDay = 12.0;
    ASSERT_TRUE(ground.offer(same, 0.0));
    double before = budget.remaining();
    UplinkPlan refresh = planner.planUpdate(ground, cache, 1, budget);
    EXPECT_TRUE(refresh.sent);
    EXPECT_DOUBLE_EQ(refresh.bytes, 0.0);
    EXPECT_DOUBLE_EQ(budget.remaining(), before);
    EXPECT_DOUBLE_EQ(cache.referenceDay(1), 12.0);
}

TEST(UplinkPlanner, FreshCacheSkipsReplanning)
{
    ReferenceStore ground;
    ASSERT_TRUE(ground.offer(testImage(10.0, 1), 0.0));
    OnboardCache cache(16, 64);
    UplinkPlanner planner;
    orbit::DailyByteBudget budget(1e12);
    ASSERT_TRUE(planner.planUpdate(ground, cache, 1, budget).sent);

    // Cache is as fresh as the ground: nothing to do.
    UplinkPlan plan = planner.planUpdate(ground, cache, 1, budget);
    EXPECT_FALSE(plan.sent);
    EXPECT_FALSE(plan.skippedForBudget);
    EXPECT_DOUBLE_EQ(plan.bytes, 0.0);
}

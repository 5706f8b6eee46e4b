/**
 * @file
 * Tests for the on-board systems (Earth+, Kodan, SatRoI, DownloadAll)
 * on controlled captures.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

#include "core/systems.hh"
#include "raster/metrics.hh"
#include "raster/resample.hh"
#include "synth/dataset.hh"

using namespace earthplus;
using namespace earthplus::core;

namespace {

/** Shared fixture: a small Planet-like scene + helpers. */
struct SystemsFixture
{
    synth::LocationProfile profile;
    synth::SceneConfig config;
    std::unique_ptr<synth::SceneModel> scene;
    std::unique_ptr<synth::WeatherProcess> weather;
    std::unique_ptr<synth::CaptureSimulator> sim;
    SystemParams params;

    SystemsFixture()
    {
        profile.locationId = 0;
        profile.name = "t";
        profile.mix = {0.1, 0.3, 0.1, 0.3, 0.2, 0.0};
        profile.seed = 0x575;
        config.width = 192;
        config.height = 192;
        config.bands = synth::dovesBands();
        scene = std::make_unique<synth::SceneModel>(profile, config);
        weather = std::make_unique<synth::WeatherProcess>();
        sim = std::make_unique<synth::CaptureSimulator>(*scene, *weather);
        params.refDownsample = 16;
        params.tileSize = 64;
        // Weather is seasonal; clear days can be >30 days apart in
        // winter. Keep guaranteed downloads out of the way so the
        // tests isolate reference-based behaviour (the dedicated test
        // sets its own period).
        params.guaranteedPeriodDays = 365.0;
    }

    /** First clear (<1% coverage) day at or after `from`. */
    double
    clearDay(double from) const
    {
        for (int d = static_cast<int>(from); d < 400; ++d)
            if (weather->coverage(0, d) < 0.01)
                return static_cast<double>(d) + 0.3;
        return -1.0;
    }

    /** First overcast (>60%) day at or after `from`. */
    double
    cloudyDay(double from) const
    {
        for (int d = static_cast<int>(from); d < 400; ++d)
            if (weather->coverage(0, d) > 0.6)
                return static_cast<double>(d) + 0.3;
        return -1.0;
    }
};

/**
 * The decode-based ground reconstruction: every band's stream is
 * entropy-decoded and its coded tiles are pasted over the fill (flat
 * gray without one). The systems build the same image from the
 * encoder's own state; this oracle is the reference they must match.
 */
raster::Image
decodeOracle(const ProcessResult &res, const raster::Image *fill)
{
    raster::Image out;
    for (size_t b = 0; b < res.encodedBands.size(); ++b) {
        const codec::EncodedImage &e = res.encodedBands[b];
        const int band = static_cast<int>(b);
        raster::Plane plane(e.width, e.height, 0.5f);
        if (fill && band < fill->bandCount())
            plane = fill->band(band);
        raster::Plane decoded = codec::decode(e);
        raster::TileGrid grid(e.width, e.height, e.tileSize);
        for (int t = 0; t < grid.tileCount(); ++t) {
            if (!e.tileCoded[static_cast<size_t>(t)])
                continue;
            raster::TileRect r = grid.rect(t);
            plane.paste(decoded.crop(r.x0, r.y0, r.width, r.height), r.x0,
                        r.y0);
        }
        out.addBand(std::move(plane));
    }
    return out;
}

/** Mean per-band PSNR over cloud-free pixels, 99 dB for exact bands. */
double
oraclePsnr(const raster::Image &truth, const raster::Image &recon,
           const raster::Bitmap &cloudTruth)
{
    raster::Bitmap valid = cloudTruth;
    valid.invert();
    double sum = 0.0;
    for (int b = 0; b < truth.bandCount(); ++b) {
        double p = raster::psnr(truth.band(b), recon.band(b), &valid);
        sum += std::isinf(p) ? 99.0 : p;
    }
    return truth.bandCount() ? sum / truth.bandCount() : 0.0;
}

/** Same band count, shapes and bits. */
bool
bitIdentical(const raster::Image &a, const raster::Image &b)
{
    if (a.bandCount() != b.bandCount())
        return false;
    for (int i = 0; i < a.bandCount(); ++i) {
        const raster::Plane &pa = a.band(i);
        const raster::Plane &pb = b.band(i);
        if (pa.width() != pb.width() || pa.height() != pb.height() ||
            std::memcmp(pa.data().data(), pb.data().data(),
                        pa.data().size() * sizeof(float)) != 0)
            return false;
    }
    return true;
}

/** What one oracle run compared. */
struct OracleTally
{
    int compared = 0; ///< Captures not dropped, checked against decode.
    int filled = 0;   ///< ... of them pasted over a reference fill.
    int deltas = 0;   ///< ... of them reference-based (not full).
};

/**
 * Process one capture every third day over two months and check each
 * one that is not dropped against the decode oracle. `before()` runs
 * ahead of each capture and returns the fill that process() will
 * paste over (null for flat gray); it is copied before process() can
 * change it.
 */
template <typename Before>
OracleTally
runDecodeOracle(SystemsFixture &f, OnboardSystem &sys, Before &&before)
{
    OracleTally tally;
    for (int d = 60; d <= 120; d += 3) {
        SCOPED_TRACE(testing::Message() << sys.name() << " day " << d);
        std::optional<raster::Image> fill;
        if (const raster::Image *img = before())
            fill = *img;
        synth::Capture cap = f.sim->capture(d + 0.3, 0);
        ProcessResult res = sys.process(cap);
        if (res.dropped)
            continue;
        raster::Image expect = decodeOracle(res, fill ? &*fill : nullptr);
        EXPECT_TRUE(bitIdentical(res.reconstructed, expect));
        EXPECT_EQ(res.psnr, oraclePsnr(cap.image, expect, cap.cloudTruth));
        ++tally.compared;
        tally.filled += fill ? 1 : 0;
        tally.deltas += res.fullDownload ? 0 : 1;
    }
    return tally;
}

/** True when `a` and `b` hold the same bits inside `r`. */
bool
tileIdentical(const raster::Plane &a, const raster::Plane &b,
              const raster::TileRect &r)
{
    for (int y = r.y0; y < r.y0 + r.height; ++y)
        if (std::memcmp(a.row(y) + r.x0, b.row(y) + r.x0,
                        static_cast<size_t>(r.width) * sizeof(float)) != 0)
            return false;
    return true;
}

/**
 * Check that `plan` was applied to satellite 0's cache and ground mirror
 * of location 0 as one tile mask: on every tile it names the cache
 * holds the downsampled ground reference and the mirror the
 * full-resolution one; every other tile (all of them for a skipped
 * update) is as it was in `cacheBefore`/`mirrorBefore`.
 */
void
expectOneMaskApplied(EarthPlusSystem &sys, const raster::Image &groundRef,
                     const UplinkPlan &plan,
                     const raster::Image &cacheBefore,
                     const raster::Image &mirrorBefore,
                     const SystemParams &params)
{
    const raster::Image &cache = sys.cacheFor(0).reference(0);
    const raster::Image *mirror = sys.groundMirror(0, 0);
    ASSERT_NE(mirror, nullptr);
    int factor = params.refDownsample;
    raster::TileGrid fullGrid(groundRef.width(), groundRef.height(),
                              params.tileSize);
    raster::TileGrid lowGrid(cache.width(), cache.height(),
                             params.tileSize / factor);
    ASSERT_EQ(lowGrid.tileCount(), fullGrid.tileCount());
    if (plan.sent) {
        ASSERT_EQ(plan.updatedTiles.count(), fullGrid.tileCount());
    }
    for (int b = 0; b < groundRef.bandCount(); ++b) {
        raster::Plane low = raster::downsample(groundRef.band(b), factor);
        for (int t = 0; t < fullGrid.tileCount(); ++t) {
            SCOPED_TRACE(testing::Message() << "band " << b << " tile " << t);
            bool updated = plan.sent && plan.updatedTiles.get(t);
            EXPECT_TRUE(tileIdentical(
                cache.band(b), updated ? low : cacheBefore.band(b),
                lowGrid.rect(t)));
            EXPECT_TRUE(tileIdentical(
                mirror->band(b),
                updated ? groundRef.band(b) : mirrorBefore.band(b),
                fullGrid.rect(t)));
        }
    }
    double day = plan.sent ? groundRef.info().captureDay
                           : cacheBefore.info().captureDay;
    EXPECT_DOUBLE_EQ(cache.info().captureDay, day);
    EXPECT_DOUBLE_EQ(mirror->info().captureDay, day);
}

} // namespace

TEST(EarthPlusSystemTest, BootstrapThenReferenceBasedEncoding)
{
    SystemsFixture f;
    ReferenceStore ground(0.01);
    EarthPlusSystem sys(f.config.bands, f.params, {}, ground);
    orbit::DailyByteBudget budget(1e12);

    double d1 = f.clearDay(0.0);
    ASSERT_GE(d1, 0.0);
    // No reference anywhere: first capture is a full download.
    sys.prepareCapture(0, 0, budget);
    ProcessResult r1 = sys.process(f.sim->capture(d1, 0));
    EXPECT_FALSE(r1.dropped);
    EXPECT_TRUE(r1.fullDownload);
    EXPECT_GT(r1.downloadedTileFraction, 0.9);
    EXPECT_TRUE(std::isinf(r1.referenceAgeDays));
    EXPECT_GT(r1.psnr, 30.0);
    ASSERT_TRUE(ground.has(0)); // clear download became the reference

    // Next clear capture days later: reference-based encoding kicks in
    // and downloads far fewer tiles.
    double d2 = f.clearDay(d1 + 2.0);
    ASSERT_GE(d2, 0.0);
    UplinkPlan plan = sys.prepareCapture(0, 0, budget);
    EXPECT_TRUE(plan.sent);
    ProcessResult r2 = sys.process(f.sim->capture(d2, 0));
    EXPECT_FALSE(r2.dropped);
    EXPECT_FALSE(r2.fullDownload);
    EXPECT_LT(r2.downloadedTileFraction, 0.7);
    EXPECT_LT(r2.downlinkBytes, r1.downlinkBytes);
    EXPECT_NEAR(r2.referenceAgeDays, d2 - d1, 0.5);
    EXPECT_GT(r2.psnr, 30.0);
}

TEST(EarthPlusSystemTest, DropsOvercastCaptures)
{
    // Every screening system drops the same overcast capture; a dropped
    // capture uses no reference, so its reference age is +inf.
    SystemsFixture f;
    ReferenceStore ground(0.01);
    EarthPlusSystem earthPlus(f.config.bands, f.params, {}, ground);
    KodanSystem kodan(f.config.bands, f.params);
    SatRoISystem satRoI(f.config.bands, f.params);
    double d = f.cloudyDay(0.0);
    ASSERT_GE(d, 0.0);
    for (OnboardSystem *sys :
         std::initializer_list<OnboardSystem *>{&earthPlus, &kodan,
                                                &satRoI}) {
        SCOPED_TRACE(sys->name());
        ProcessResult r = sys->process(f.sim->capture(d, 0));
        EXPECT_TRUE(r.dropped);
        EXPECT_EQ(r.downlinkBytes, 0u);
        EXPECT_TRUE(r.encodedBands.empty());
        EXPECT_GT(r.measuredCloudCoverage, 0.5);
        EXPECT_TRUE(std::isinf(r.referenceAgeDays));
    }
}

TEST(EarthPlusSystemTest, RefDownsampleAloneSetsTheReferenceGeometry)
{
    // The uplink planner reads the factor from the cache the system
    // builds, so one knob changes it for the cache, the uplink and the
    // change detector alike.
    SystemsFixture f;
    f.params.refDownsample = 8;
    ReferenceStore ground(0.01);
    EarthPlusSystem sys(f.config.bands, f.params, {}, ground);
    orbit::DailyByteBudget budget(1e12);

    double d1 = f.clearDay(0.0);
    ASSERT_GE(d1, 0.0);
    sys.prepareCapture(0, 0, budget);
    ProcessResult r1 = sys.process(f.sim->capture(d1, 0));
    ASSERT_TRUE(r1.fullDownload);

    double d2 = f.clearDay(d1 + 2.0);
    ASSERT_GE(d2, 0.0);
    UplinkPlan install = sys.prepareCapture(0, 0, budget);
    ASSERT_TRUE(install.sent);
    EXPECT_EQ(install.updatedTiles.countSet(), install.updatedTiles.count());
    EXPECT_EQ(sys.cacheFor(0).reference(0).width(), 192 / 8);
    ProcessResult r2 = sys.process(f.sim->capture(d2, 0));
    EXPECT_FALSE(r2.fullDownload);
    EXPECT_LT(r2.downloadedTileFraction, 0.7);
    EXPECT_NEAR(r2.referenceAgeDays, d2 - d1, 0.5);
}

TEST(EarthPlusSystemTest, CacheAndMirrorApplyOneTileMask)
{
    // One (satellite, location) through first contact, a delta, a
    // zero-byte refresh and a budget-starved skip: each step's mask
    // lands identically in the low-res cache and the full-res mirror.
    SystemsFixture f;
    ReferenceStore ground(0.01);
    EarthPlusSystem sys(f.config.bands, f.params, {}, ground);
    orbit::DailyByteBudget rich(1e12);

    double d1 = f.clearDay(0.0);
    ASSERT_GE(d1, 0.0);
    raster::Image ref = f.sim->capture(d1, 0).image;
    ref.info().captureDay = 10.0;
    auto paint = [](raster::Image &img, int x0, int y0, float delta) {
        for (int b = 0; b < img.bandCount(); ++b)
            for (int y = y0; y < y0 + 64; ++y)
                for (int x = x0; x < x0 + 64; ++x)
                    img.band(b).at(x, y) += delta;
    };

    // First contact: a delta against an empty cache, every tile.
    ASSERT_TRUE(ground.offer(ref, 0.0));
    UplinkPlan install = sys.prepareCapture(0, 0, rich);
    ASSERT_TRUE(install.sent);
    EXPECT_GT(install.bytes, 0.0);
    EXPECT_EQ(install.updatedTiles.countSet(), install.updatedTiles.count());
    expectOneMaskApplied(sys, ref, install, raster::Image(),
                         raster::Image(), f.params);

    // A delta: tile 0 changes by far more than the delta threshold,
    // tile 8 by far less, so the ground reference now differs from
    // the cache and mirror on an unsent tile.
    raster::Image cacheBefore = sys.cacheFor(0).reference(0);
    raster::Image mirrorBefore = *sys.groundMirror(0, 0);
    paint(ref, 0, 0, 0.2f);
    paint(ref, 128, 128, 0.0005f);
    ref.info().captureDay = 20.0;
    ASSERT_TRUE(ground.offer(ref, 0.0));
    UplinkPlan delta = sys.prepareCapture(0, 0, rich);
    ASSERT_TRUE(delta.sent);
    EXPECT_GT(delta.bytes, 0.0);
    EXPECT_LT(delta.bytes, install.bytes);
    EXPECT_TRUE(delta.updatedTiles.get(0));
    EXPECT_FALSE(delta.updatedTiles.get(8));
    expectOneMaskApplied(sys, ref, delta, cacheBefore, mirrorBefore,
                         f.params);

    // Identical pixels, newer day: an empty mask, zero bytes, the day
    // moves and no pixel does.
    cacheBefore = sys.cacheFor(0).reference(0);
    mirrorBefore = *sys.groundMirror(0, 0);
    ref.info().captureDay = 30.0;
    ASSERT_TRUE(ground.offer(ref, 0.0));
    double before = rich.remaining();
    UplinkPlan refresh = sys.prepareCapture(0, 0, rich);
    ASSERT_TRUE(refresh.sent);
    EXPECT_DOUBLE_EQ(refresh.bytes, 0.0);
    EXPECT_DOUBLE_EQ(rich.remaining(), before);
    EXPECT_EQ(refresh.updatedTiles.countSet(), 0);
    expectOneMaskApplied(sys, ref, refresh, cacheBefore, mirrorBefore,
                         f.params);

    // A real change the budget cannot carry: neither copy moves.
    cacheBefore = sys.cacheFor(0).reference(0);
    mirrorBefore = *sys.groundMirror(0, 0);
    paint(ref, 64, 64, 0.2f);
    ref.info().captureDay = 40.0;
    ASSERT_TRUE(ground.offer(ref, 0.0));
    orbit::DailyByteBudget starved(1.0);
    UplinkPlan skip = sys.prepareCapture(0, 0, starved);
    EXPECT_FALSE(skip.sent);
    EXPECT_TRUE(skip.skippedForBudget);
    EXPECT_DOUBLE_EQ(starved.remaining(), 1.0);
    expectOneMaskApplied(sys, ref, skip, cacheBefore, mirrorBefore,
                         f.params);
}

TEST(EarthPlusSystemTest, GuaranteedDownloadAfterPeriod)
{
    SystemsFixture f;
    f.params.guaranteedPeriodDays = 10.0;
    ReferenceStore ground(0.01);
    EarthPlusSystem sys(f.config.bands, f.params, {}, ground);
    orbit::DailyByteBudget budget(1e12);

    double d1 = f.clearDay(0.0);
    sys.prepareCapture(0, 0, budget);
    ProcessResult r1 = sys.process(f.sim->capture(d1, 0));
    ASSERT_TRUE(r1.fullDownload);

    // Within the period: incremental.
    double d2 = f.clearDay(d1 + 2.0);
    if (d2 - d1 < 10.0) {
        sys.prepareCapture(0, 0, budget);
        ProcessResult r2 = sys.process(f.sim->capture(d2, 0));
        EXPECT_FALSE(r2.fullDownload);
    }
    // Past the period: guaranteed full download again.
    double d3 = f.clearDay(d1 + 11.0);
    ASSERT_GE(d3, 0.0);
    sys.prepareCapture(0, 0, budget);
    ProcessResult r3 = sys.process(f.sim->capture(d3, 0));
    EXPECT_TRUE(r3.fullDownload);
}

TEST(EarthPlusSystemTest, PerSatelliteCachesAreIndependent)
{
    SystemsFixture f;
    ReferenceStore ground(0.01);
    EarthPlusSystem sys(f.config.bands, f.params, {}, ground);
    orbit::DailyByteBudget budget(1e12);

    double d1 = f.clearDay(0.0);
    sys.prepareCapture(0, 3, budget);
    sys.process(f.sim->capture(d1, 3));
    // Satellite 3 got a cache only after the ground had a reference.
    UplinkPlan planSat3 = sys.prepareCapture(0, 3, budget);
    EXPECT_TRUE(sys.cacheFor(3).has(0));
    EXPECT_FALSE(sys.cacheFor(7).has(0));
    // Satellite 7's first prepare sends every tile of the reference.
    UplinkPlan planSat7 = sys.prepareCapture(0, 7, budget);
    EXPECT_TRUE(planSat7.sent);
    EXPECT_EQ(planSat7.updatedTiles.countSet(), planSat7.updatedTiles.count());
    (void)planSat3;
}

TEST(KodanSystemTest, DownloadsAllNonCloudyTiles)
{
    SystemsFixture f;
    KodanSystem sys(f.config.bands, f.params);
    double d = f.clearDay(0.0);
    ASSERT_GE(d, 0.0);
    ProcessResult r = sys.process(f.sim->capture(d, 0));
    EXPECT_FALSE(r.dropped);
    EXPECT_GT(r.downloadedTileFraction, 0.9); // clear day: everything
    EXPECT_GT(r.psnr, 28.0);
    EXPECT_GT(r.cloudDetectSec, 0.0);
    EXPECT_EQ(r.changeDetectSec, 0.0); // Kodan has no change detector
}

TEST(KodanSystemTest, ExcludesCloudyTilesOnPartialDays)
{
    SystemsFixture f;
    KodanSystem sys(f.config.bands, f.params);
    for (int d = 0; d < 300; ++d) {
        double cov = f.weather->coverage(0, d);
        if (cov < 0.25 || cov > 0.45)
            continue;
        ProcessResult r =
            sys.process(f.sim->capture(static_cast<double>(d) + 0.3, 0));
        if (r.dropped)
            continue;
        EXPECT_LT(r.downloadedTileFraction, 1.0);
        return;
    }
    GTEST_SKIP() << "no suitable partial-cloud day found";
}

TEST(SatRoISystemTest, ReferenceStaysFixedAndAges)
{
    SystemsFixture f;
    SatRoISystem sys(f.config.bands, f.params);

    double d1 = f.clearDay(0.0);
    ASSERT_GE(d1, 0.0);
    ProcessResult r1 = sys.process(f.sim->capture(d1, 0));
    EXPECT_TRUE(r1.fullDownload); // bootstrap

    double d2 = f.clearDay(d1 + 3.0);
    ASSERT_GE(d2, 0.0);
    ProcessResult r2 = sys.process(f.sim->capture(d2, 0));
    EXPECT_NEAR(r2.referenceAgeDays, d2 - d1, 0.5);

    double d3 = f.clearDay(d2 + 5.0);
    if (d3 > 0 && d3 - d1 < f.params.guaranteedPeriodDays) {
        ProcessResult r3 = sys.process(f.sim->capture(d3, 0));
        // Still referenced to d1: the reference never refreshes.
        EXPECT_NEAR(r3.referenceAgeDays, d3 - d1, 0.5);
    }
}

TEST(DownloadAllSystemTest, AlwaysEverything)
{
    SystemsFixture f;
    DownloadAllSystem sys(f.config.bands, f.params);
    double d = f.clearDay(0.0);
    ProcessResult r = sys.process(f.sim->capture(d, 0));
    EXPECT_FALSE(r.dropped);
    EXPECT_DOUBLE_EQ(r.downloadedTileFraction, 1.0);
    EXPECT_TRUE(r.fullDownload);
    EXPECT_GT(r.psnr, 35.0);
}

TEST(SystemsComparison, EarthPlusUsesLessDownlinkAtSimilarQuality)
{
    // One clear capture pair, all systems at the same gamma: Earth+
    // must download fewer bytes than Kodan without a PSNR collapse.
    SystemsFixture f;
    ReferenceStore ground(0.01);
    EarthPlusSystem earthPlus(f.config.bands, f.params, {}, ground);
    KodanSystem kodan(f.config.bands, f.params);
    orbit::DailyByteBudget budget(1e12);

    double d1 = f.clearDay(0.0);
    double d2 = f.clearDay(d1 + 2.0);
    ASSERT_GE(d2, 0.0);

    earthPlus.prepareCapture(0, 0, budget);
    earthPlus.process(f.sim->capture(d1, 0));
    earthPlus.prepareCapture(0, 0, budget);
    ProcessResult ep = earthPlus.process(f.sim->capture(d2, 0));

    ProcessResult kd = kodan.process(f.sim->capture(d2, 0));

    ASSERT_FALSE(ep.dropped);
    ASSERT_FALSE(kd.dropped);
    EXPECT_LT(ep.downlinkBytes, kd.downlinkBytes);
    // At equal gamma, Earth+'s unchanged tiles reconstruct at the
    // theta-implied quality (paper fn. 5: "above 40" dB-ish) while
    // Kodan re-encodes everything; the fair comparison is at matched
    // bandwidth (Fig. 11). Here we assert the absolute quality floor.
    EXPECT_GT(ep.psnr, 35.0);
}

TEST(SystemsOracle, ReconstructionMatchesDecode)
{
    // Every system's ground reconstruction and PSNR come from the
    // encoder's own state; they must equal decoding the downlinked
    // streams and pasting them over the same fill.
    SystemsFixture f;
    ReferenceStore ground(0.01);
    EarthPlusSystem earthPlus(f.config.bands, f.params, {}, ground);
    orbit::DailyByteBudget budget(1e12);
    OracleTally ep = runDecodeOracle(f, earthPlus, [&] {
        earthPlus.prepareCapture(0, 0, budget);
        return earthPlus.groundMirror(0, 0);
    });
    EXPECT_GE(ep.compared, 5);
    EXPECT_GE(ep.deltas, 1); // reference-based tiles over the mirror

    SatRoISystem satRoI(f.config.bands, f.params);
    OracleTally sr = runDecodeOracle(
        f, satRoI, [&] { return satRoI.fixedReference(0); });
    EXPECT_GE(sr.compared, 5);
    EXPECT_GE(sr.filled, 1); // pasted over the frozen reference

    KodanSystem kodan(f.config.bands, f.params);
    DownloadAllSystem all(f.config.bands, f.params);
    auto gray = [] { return static_cast<const raster::Image *>(nullptr); };
    EXPECT_GE(runDecodeOracle(f, kodan, gray).compared, 5);
    EXPECT_GE(runDecodeOracle(f, all, gray).compared, 5);
}

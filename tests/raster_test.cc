/**
 * @file
 * Unit tests for the raster substrate: planes, bitmaps, tiles,
 * resampling, metrics and IO.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "raster/bitmap.hh"
#include "raster/image.hh"
#include "raster/io.hh"
#include "raster/metrics.hh"
#include "raster/plane.hh"
#include "raster/resample.hh"
#include "raster/tile.hh"
#include "util/rng.hh"

using namespace earthplus;
using namespace earthplus::raster;

namespace {

Plane
randomPlane(int w, int h, uint64_t seed)
{
    Plane p(w, h);
    Rng rng(seed);
    for (auto &v : p.data())
        v = static_cast<float>(rng.uniform());
    return p;
}

} // namespace

TEST(PlaneTest, ConstructionAndFill)
{
    Plane p(4, 3, 0.25f);
    EXPECT_EQ(p.width(), 4);
    EXPECT_EQ(p.height(), 3);
    EXPECT_EQ(p.size(), 12u);
    EXPECT_FLOAT_EQ(p.at(3, 2), 0.25f);
    p.fill(0.5f);
    EXPECT_FLOAT_EQ(p.at(0, 0), 0.5f);
    EXPECT_DOUBLE_EQ(p.mean(), 0.5);
}

TEST(PlaneTest, EmptyPlane)
{
    Plane p;
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.mean(), 0.0);
}

TEST(PlaneTest, ClampTo)
{
    Plane p(2, 1);
    p.at(0, 0) = -0.5f;
    p.at(1, 0) = 1.5f;
    p.clampTo(0.0f, 1.0f);
    EXPECT_FLOAT_EQ(p.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(p.at(1, 0), 1.0f);
}

TEST(PlaneTest, CropAndPasteRoundtrip)
{
    Plane p = randomPlane(16, 16, 1);
    Plane c = p.crop(4, 8, 6, 5);
    ASSERT_EQ(c.width(), 6);
    ASSERT_EQ(c.height(), 5);
    for (int y = 0; y < 5; ++y)
        for (int x = 0; x < 6; ++x)
            EXPECT_FLOAT_EQ(c.at(x, y), p.at(4 + x, 8 + y));

    Plane q(16, 16, 0.0f);
    q.paste(c, 4, 8);
    for (int y = 0; y < 5; ++y)
        for (int x = 0; x < 6; ++x)
            EXPECT_FLOAT_EQ(q.at(4 + x, 8 + y), p.at(4 + x, 8 + y));
    EXPECT_FLOAT_EQ(q.at(0, 0), 0.0f);
}

TEST(PlaneTest, CropClipsAtEdges)
{
    Plane p = randomPlane(8, 8, 2);
    Plane c = p.crop(6, 6, 5, 5);
    EXPECT_EQ(c.width(), 2);
    EXPECT_EQ(c.height(), 2);
}

TEST(BitmapTest, CountAndOps)
{
    Bitmap a(4, 4, false);
    a.set(1, 1, true);
    a.set(2, 2, true);
    EXPECT_EQ(a.countSet(), 2u);
    EXPECT_DOUBLE_EQ(a.fractionSet(), 2.0 / 16.0);

    Bitmap b(4, 4, false);
    b.set(2, 2, true);
    b.set(3, 3, true);

    Bitmap u = a;
    u.orWith(b);
    EXPECT_EQ(u.countSet(), 3u);

    Bitmap i = a;
    i.andWith(b);
    EXPECT_EQ(i.countSet(), 1u);
    EXPECT_TRUE(i.get(2, 2));

    Bitmap inv = a;
    inv.invert();
    EXPECT_EQ(inv.countSet(), 14u);
}

TEST(ImageTest, BandsShareShapeAndMetadata)
{
    Image img(8, 6, 3);
    EXPECT_EQ(img.width(), 8);
    EXPECT_EQ(img.height(), 6);
    EXPECT_EQ(img.bandCount(), 3);
    EXPECT_EQ(img.pixelBytes(), 8u * 6u * 3u * sizeof(float));
    img.info().locationId = 5;
    img.info().captureDay = 12.5;
    EXPECT_EQ(img.info().locationId, 5);

    Image empty;
    empty.addBand(Plane(4, 4));
    EXPECT_EQ(empty.width(), 4);
}

TEST(TileGridTest, ExactPartition)
{
    TileGrid g(256, 192, 64);
    EXPECT_EQ(g.tilesX(), 4);
    EXPECT_EQ(g.tilesY(), 3);
    EXPECT_EQ(g.tileCount(), 12);
    TileRect r = g.rect(1, 2);
    EXPECT_EQ(r.x0, 64);
    EXPECT_EQ(r.y0, 128);
    EXPECT_EQ(r.width, 64);
    EXPECT_EQ(r.height, 64);
}

TEST(TileGridTest, EdgeTilesAreShort)
{
    TileGrid g(100, 70, 64);
    EXPECT_EQ(g.tilesX(), 2);
    EXPECT_EQ(g.tilesY(), 2);
    TileRect r = g.rect(1, 1);
    EXPECT_EQ(r.width, 36);
    EXPECT_EQ(r.height, 6);
    // Flat-index and coordinate addressing agree.
    TileRect r2 = g.rect(g.tileIndex(1, 1));
    EXPECT_EQ(r2.x0, r.x0);
    EXPECT_EQ(r2.y0, r.y0);
}

TEST(TileMaskTest, SetCountSubtract)
{
    TileMask m(4, 4, false);
    m.set(0, true);
    m.set(5, true);
    m.set(1, 1, true); // same as flat index 5
    EXPECT_EQ(m.countSet(), 2);
    EXPECT_DOUBLE_EQ(m.fractionSet(), 2.0 / 16.0);

    TileMask n(4, 4, false);
    n.set(5, true);
    m.subtract(n);
    EXPECT_EQ(m.countSet(), 1);
    EXPECT_TRUE(m.get(0));

    m.invert();
    EXPECT_EQ(m.countSet(), 15);
}

TEST(TileMaskTest, FromBitmapThreshold)
{
    Bitmap px(128, 64, false);
    // Fully set the first 64x64 tile; quarter-set the second.
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            px.set(x, y, true);
    for (int y = 0; y < 32; ++y)
        for (int x = 64; x < 96; ++x)
            px.set(x, y, true);
    TileGrid g(128, 64, 64);
    auto fractions = tileFractions(px, g);
    EXPECT_DOUBLE_EQ(fractions[0], 1.0);
    EXPECT_DOUBLE_EQ(fractions[1], 0.25);
    TileMask half = tileMaskFromBitmap(px, g, 0.5);
    EXPECT_TRUE(half.get(0));
    EXPECT_FALSE(half.get(1));
    TileMask tenth = tileMaskFromBitmap(px, g, 0.1);
    EXPECT_TRUE(tenth.get(1));
}

TEST(TileMaskTest, PasteTilesCopiesOnlySetTilesIncludingShortEdges)
{
    // 20x10 in 8-px tiles: a 3x2 grid whose right column is 4 px wide
    // and whose bottom row is 2 px tall.
    Plane src = randomPlane(20, 10, 3);
    Plane dst(20, 10, 0.25f);
    TileMask tiles(3, 2, false);
    tiles.set(2, 1, true); // the short corner tile
    tiles.set(0, 0, true);
    pasteTiles(dst, src, tiles, 8);
    for (int y = 0; y < 10; ++y) {
        for (int x = 0; x < 20; ++x) {
            bool set = tiles.get(x / 8, y / 8);
            EXPECT_EQ(dst.at(x, y), set ? src.at(x, y) : 0.25f)
                << "(" << x << ", " << y << ")";
        }
    }
}

TEST(TileMaskDeathTest, PasteTilesRejectsMismatchedShapes)
{
    Plane src(16, 16, 0.5f);
    Plane dst(16, 16, 0.0f);
    EXPECT_DEATH(pasteTiles(dst, src, TileMask(4, 4), 8), "mask mismatch");
    Plane small(8, 16, 0.0f);
    EXPECT_DEATH(pasteTiles(small, src, TileMask(1, 2), 8),
                 "shape mismatch");
}

TEST(ResampleTest, DownsampleAveragesBlocks)
{
    Plane p(4, 4);
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            p.at(x, y) = static_cast<float>(y * 4 + x);
    Plane d = downsample(p, 2);
    ASSERT_EQ(d.width(), 2);
    ASSERT_EQ(d.height(), 2);
    EXPECT_FLOAT_EQ(d.at(0, 0), (0 + 1 + 4 + 5) / 4.0f);
    EXPECT_FLOAT_EQ(d.at(1, 1), (10 + 11 + 14 + 15) / 4.0f);
}

TEST(ResampleTest, DownsampleFactorOneIsIdentity)
{
    Plane p = randomPlane(8, 8, 3);
    Plane d = downsample(p, 1);
    EXPECT_EQ(d.data(), p.data());
}

TEST(ResampleTest, DownsampleHandlesRemainders)
{
    Plane p(5, 5, 1.0f);
    Plane d = downsample(p, 2);
    EXPECT_EQ(d.width(), 3);
    EXPECT_EQ(d.height(), 3);
    EXPECT_FLOAT_EQ(d.at(2, 2), 1.0f);
}

TEST(ResampleTest, FractionAndAnyPolicies)
{
    Bitmap b(4, 4, false);
    b.set(0, 0, true);
    Plane f = downsampleFraction(b, 2);
    EXPECT_FLOAT_EQ(f.at(0, 0), 0.25f);
    EXPECT_FLOAT_EQ(f.at(1, 1), 0.0f);
    Bitmap any = downsampleAny(b, 2);
    EXPECT_TRUE(any.get(0, 0));
    EXPECT_FALSE(any.get(1, 0));
}

TEST(MetricsTest, MseAndPsnr)
{
    Plane a(4, 4, 0.5f);
    Plane b(4, 4, 0.5f);
    EXPECT_DOUBLE_EQ(mse(a, b), 0.0);
    EXPECT_TRUE(std::isinf(psnr(a, b)));

    b.fill(0.6f);
    EXPECT_NEAR(mse(a, b), 0.01, 1e-7);
    EXPECT_NEAR(psnr(a, b), 20.0, 1e-4);
    EXPECT_NEAR(meanAbsDiff(a, b), 0.1, 1e-6);
}

TEST(MetricsTest, MaskRestrictsSupport)
{
    Plane a(2, 1, 0.0f);
    Plane b(2, 1, 0.0f);
    b.at(1, 0) = 1.0f;
    Bitmap valid(2, 1, false);
    valid.set(0, 0, true);
    EXPECT_DOUBLE_EQ(mse(a, b, &valid), 0.0);
    valid.set(1, 0, true);
    EXPECT_DOUBLE_EQ(mse(a, b, &valid), 0.5);
}

TEST(IoTest, PgmExport)
{
    Plane p(4, 2, 0.5f);
    std::string path = "/tmp/ep_raster_io_test.pgm";
    ASSERT_TRUE(savePgm(p, path));
    FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char hdr[3] = {};
    ASSERT_EQ(std::fread(hdr, 1, 2, f), 2u);
    EXPECT_EQ(hdr[0], 'P');
    EXPECT_EQ(hdr[1], '5');
    std::fclose(f);
    std::remove(path.c_str());
}

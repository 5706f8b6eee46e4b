/**
 * @file
 * Unit and property tests for the image codec front-end: rate control,
 * ROI coding and serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "codec/codec.hh"
#include "codec/kernels.hh"
#include "codec/rangecoder.hh"
#include "codec/tile_coder.hh"
#include "raster/metrics.hh"
#include "util/bytes.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/telemetry.hh"

using namespace earthplus;
using namespace earthplus::codec;

namespace {

/** Natural-image-like test content: smooth structure + mild noise. */
raster::Plane
testImage(int w, int h, uint64_t seed)
{
    raster::Plane p(w, h);
    Rng rng(seed);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            p.at(x, y) = 0.5f +
                         0.3f * std::sin(x * 0.045f) *
                             std::cos(y * 0.06f) +
                         0.1f * std::sin((x + y) * 0.15f) +
                         static_cast<float>(rng.normal(0.0, 0.01));
    p.clampTo(0.0f, 1.0f);
    return p;
}

} // namespace

class CodecBpp : public ::testing::TestWithParam<double>
{
};

TEST_P(CodecBpp, RoundtripQualityScalesWithRate)
{
    double bpp = GetParam();
    raster::Plane img = testImage(192, 192, 1);
    EncodeParams p;
    p.bitsPerPixel = bpp;
    EncodedImage enc = encode(img, p);
    raster::Plane dec = decode(enc);
    double q = raster::psnr(img, dec);
    // Loose per-rate floors: embedded wavelet coding on this content.
    if (bpp >= 2.0)
        EXPECT_GT(q, 40.0);
    else if (bpp >= 0.5)
        EXPECT_GT(q, 32.0);
    else
        EXPECT_GT(q, 25.0);
}

INSTANTIATE_TEST_SUITE_P(Rates, CodecBpp,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0));

TEST(Codec, QualityIsMonotoneInRate)
{
    raster::Plane img = testImage(128, 128, 2);
    double lastPsnr = 0.0;
    size_t lastBytes = 0;
    for (double bpp : {0.25, 1.0, 4.0}) {
        EncodeParams p;
        p.bitsPerPixel = bpp;
        EncodedImage enc = encode(img, p);
        raster::Plane dec = decode(enc);
        double q = raster::psnr(img, dec);
        EXPECT_GE(q, lastPsnr - 0.2) << "bpp=" << bpp;
        EXPECT_GE(enc.totalBytes(), lastBytes) << "bpp=" << bpp;
        lastPsnr = q;
        lastBytes = enc.totalBytes();
    }
}

TEST(Codec, MeasuredRateTracksBudget)
{
    raster::Plane img = testImage(256, 256, 3);
    for (double bpp : {0.5, 1.0, 2.0}) {
        EncodeParams p;
        p.bitsPerPixel = bpp;
        EncodedImage enc = encode(img, p);
        double actual = 8.0 * static_cast<double>(enc.totalBytes()) /
                        (256.0 * 256.0);
        // Whole-pass truncation granularity allows overshoot up to
        // roughly one coding pass (~1 bpp on noisy content).
        EXPECT_LT(actual, bpp + 1.3) << "bpp=" << bpp;
        EXPECT_GT(actual, 0.05 * bpp) << "bpp=" << bpp;
    }
}

TEST(Codec, RoiOnlyCodesSelectedTiles)
{
    raster::Plane img = testImage(256, 256, 6);
    raster::TileGrid grid(256, 256, 64);
    raster::TileMask roi(grid);
    roi.set(0, true);
    roi.set(5, true);

    EncodeParams p;
    p.bitsPerPixel = 2.0;
    p.roi = &roi;
    EncodedImage enc = encode(img, p);
    std::vector<uint8_t> wantCoded(16, 0);
    wantCoded[0] = 1;
    wantCoded[5] = 1;
    EXPECT_EQ(enc.tileCoded, wantCoded);

    raster::Plane dec = decode(enc);
    // Non-ROI tiles decode to zero.
    raster::TileRect r = grid.rect(3);
    for (int y = r.y0; y < r.y0 + r.height; ++y)
        for (int x = r.x0; x < r.x0 + r.width; ++x)
            ASSERT_FLOAT_EQ(dec.at(x, y), 0.0f);
    // ROI tiles decode to high quality.
    raster::TileRect r0 = grid.rect(0);
    raster::Plane tile = img.crop(r0.x0, r0.y0, r0.width, r0.height);
    raster::Plane dtile = dec.crop(r0.x0, r0.y0, r0.width, r0.height);
    EXPECT_GT(raster::psnr(tile, dtile), 38.0);
}

TEST(Codec, RoiBytesScaleWithSelection)
{
    raster::Plane img = testImage(256, 256, 7);
    raster::TileGrid grid(256, 256, 64);

    raster::TileMask quarter(grid);
    for (int t = 0; t < 4; ++t)
        quarter.set(t, true);
    raster::TileMask all(grid, true);

    EncodeParams p;
    p.bitsPerPixel = 2.0;
    p.roi = &quarter;
    size_t quarterBytes = encode(img, p).totalBytes();
    p.roi = &all;
    size_t allBytes = encode(img, p).totalBytes();
    EXPECT_LT(static_cast<double>(quarterBytes),
              0.45 * static_cast<double>(allBytes));
}

TEST(Codec, EmptyRoiCostsAlmostNothing)
{
    raster::Plane img = testImage(128, 128, 8);
    raster::TileGrid grid(128, 128, 64);
    raster::TileMask none(grid, false);
    EncodeParams p;
    p.bitsPerPixel = 2.0;
    p.roi = &none;
    EncodedImage enc = encode(img, p);
    EXPECT_LT(enc.totalBytes(), 128u); // header + empty chunks only
    raster::Plane dec = decode(enc);
    for (float v : dec.data())
        ASSERT_FLOAT_EQ(v, 0.0f);
}

TEST(Codec, SerializeDeserializeIdentity)
{
    raster::Plane img = testImage(128, 128, 10);
    raster::TileGrid grid(128, 128, 64);
    raster::TileMask roi(grid);
    roi.set(1, true);
    roi.set(2, true);
    EncodeParams p;
    p.bitsPerPixel = 1.5;
    p.roi = &roi;
    EncodedImage enc = encode(img, p);

    auto bytes = enc.serialize();
    EXPECT_EQ(bytes.size(), enc.totalBytes());
    EncodedImage back = EncodedImage::deserialize(bytes);
    EXPECT_EQ(back.serialize(), bytes);
    // The flags word (offset 24) is always 0x800, and the chunk-height
    // word (offset 36) always kMaxTileSize.
    EXPECT_EQ(util::readPodAt<uint32_t>(bytes.data(), 24), 0x800u);
    EXPECT_EQ(util::readPodAt<uint32_t>(bytes.data(), 36),
              static_cast<uint32_t>(kMaxTileSize));
    EXPECT_EQ(back.width, enc.width);
    EXPECT_EQ(back.height, enc.height);
    EXPECT_EQ(back.tileSize, enc.tileSize);
    EXPECT_EQ(back.dwtLevels, enc.dwtLevels);
    EXPECT_EQ(back.tileCoded, enc.tileCoded);
    EXPECT_EQ(back.payload, enc.payload);

    raster::Plane a = decode(enc);
    raster::Plane b = decode(back);
    EXPECT_EQ(a.data(), b.data());
}

TEST(CodecDeath, DeserializeRejectsTruncatedStreams)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Every stream is complete: any prefix of one is a typed
    // Truncated from tryDeserialize and fatal from deserialize.
    raster::Plane img = testImage(150, 110, 32);
    EncodeParams p;
    p.bitsPerPixel = 8.0;
    p.tileSize = 96;
    std::vector<uint8_t> bytes = encode(img, p).serialize();
    const size_t headerEnd = 45; // 44-byte fixed header + 1 bitmap byte

    // Cut inside the fixed header and the tile bitmap, just past the
    // payload's length word, at an even spread through the payload and
    // one byte short of the end: each must fail with a clear message,
    // never read out of bounds.
    std::vector<size_t> cuts = {3, 20, headerEnd - 1, headerEnd + 4,
                                bytes.size() - 1};
    for (size_t i = 1; i < 6; ++i)
        cuts.push_back(headerEnd + (bytes.size() - headerEnd) * i / 6);
    for (size_t cut : cuts) {
        std::vector<uint8_t> trunc(bytes.begin(),
                                   bytes.begin() +
                                       static_cast<ptrdiff_t>(cut));
        EncodedImage e;
        std::string msg;
        EXPECT_EQ(EncodedImage::tryDeserialize(trunc.data(), trunc.size(),
                                               e, &msg),
                  StreamError::Truncated)
            << "cut at " << cut;
        EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
        EXPECT_EXIT(EncodedImage::deserialize(trunc),
                    ::testing::ExitedWithCode(1), "truncated")
            << "cut at " << cut;
    }
}

TEST(CodecDeath, DeserializeRejectsTrailingBytes)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // A stream ends where its payload does: bytes after it are a
    // typed Corrupt from tryDeserialize and fatal from deserialize,
    // and the cutter refuses the stream too.
    raster::Plane img = testImage(150, 110, 33);
    EncodeParams p;
    p.bitsPerPixel = 2.0;
    p.tileSize = 96;
    const std::vector<uint8_t> bytes = encode(img, p).serialize();
    for (size_t extra : {1, 4, 8}) {
        std::vector<uint8_t> tailed = bytes;
        tailed.resize(bytes.size() + extra, 0);
        const std::string want =
            "followed by " + std::to_string(extra) + " trailing bytes";
        EncodedImage e;
        std::string msg;
        EXPECT_EQ(EncodedImage::tryDeserialize(tailed.data(), tailed.size(),
                                               e, &msg),
                  StreamError::Corrupt)
            << extra << " extra bytes";
        EXPECT_NE(msg.find(want), std::string::npos) << msg;
        EXPECT_EXIT(EncodedImage::deserialize(tailed),
                    ::testing::ExitedWithCode(1), want)
            << extra << " extra bytes";
        EXPECT_EXIT(streamHeaderFloor(tailed), ::testing::ExitedWithCode(1),
                    want);
        EXPECT_EXIT(truncateStream(tailed, bytes.size() / 2),
                    ::testing::ExitedWithCode(1), want);
    }
}

TEST(CodecDeath, DeserializeRejectsCorruptHeaderFields)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    raster::Plane img = testImage(128, 128, 22);
    EncodeParams p;
    p.bitsPerPixel = 1.0;
    std::vector<uint8_t> bytes = encode(img, p).serialize();

    auto corrupt = [&](size_t offset, uint32_t value) {
        std::vector<uint8_t> bad = bytes;
        std::memcpy(bad.data() + offset, &value, 4);
        return bad;
    };
    // Field offsets: magic=0, width=4, height=8, tileSize=12,
    // dwtLevels=16, layers=20, flags=24, quantStep=28.
    EXPECT_EXIT(EncodedImage::deserialize(corrupt(0, 0xDEADBEEF)),
                ::testing::ExitedWithCode(1), "magic");
    EXPECT_EXIT(EncodedImage::deserialize(corrupt(4, 0)),
                ::testing::ExitedWithCode(1), "dimensions");
    EXPECT_EXIT(EncodedImage::deserialize(corrupt(8, 0x7FFFFFFF)),
                ::testing::ExitedWithCode(1), "dimensions");
    EXPECT_EXIT(EncodedImage::deserialize(corrupt(12, 0)),
                ::testing::ExitedWithCode(1), "tile size");
    EXPECT_EXIT(EncodedImage::deserialize(corrupt(16, 99)),
                ::testing::ExitedWithCode(1), "DWT");
    EXPECT_EXIT(EncodedImage::deserialize(corrupt(20, 0)),
                ::testing::ExitedWithCode(1), "layer count");
    // The one magic is "EPC5"; the retired "EPC4" layout, whose cleanup
    // runs coded a decision per candidate, is a bad magic like any
    // other.
    EXPECT_EQ(std::memcmp(bytes.data(), "EPC5", 4), 0);
    std::vector<uint8_t> epc4 = bytes;
    std::memcpy(epc4.data(), "EPC4", 4);
    EncodedImage e;
    EXPECT_EQ(EncodedImage::tryDeserialize(epc4.data(), epc4.size(), e),
              StreamError::Corrupt);
    // The layers word is always 1: a multi-layer header is corrupt.
    std::vector<uint8_t> layered = corrupt(20, 3);
    EXPECT_EQ(EncodedImage::tryDeserialize(layered.data(), layered.size(),
                                           e),
              StreamError::Corrupt);
    // One transform and one quantizer: the flags word (offset 24) is
    // always 0x800 and the quantizer step (offset 28) always
    // kQuantStep. Any other value is corrupt, the retired 5/3 words
    // (0x801 lossy, 0x803 lossless) included.
    uint32_t flags = 0;
    double step = 0.0;
    std::memcpy(&flags, bytes.data() + 24, 4);
    std::memcpy(&step, bytes.data() + 28, 8);
    EXPECT_EQ(flags, 0x800u);
    EXPECT_EQ(step, kQuantStep);
    for (uint32_t badFlags : {0x801u, 0x802u, 0x803u, 0x903u, 0x003u}) {
        std::vector<uint8_t> bad = corrupt(24, badFlags);
        EXPECT_EQ(EncodedImage::tryDeserialize(bad.data(), bad.size(), e),
                  StreamError::Corrupt)
            << std::hex << badFlags;
    }
    for (double badStep : {1.0 / 256.0, 0.0, std::nan("")}) {
        std::vector<uint8_t> bad = bytes;
        std::memcpy(bad.data() + 28, &badStep, 8);
        EXPECT_EQ(EncodedImage::tryDeserialize(bad.data(), bad.size(), e),
                  StreamError::Corrupt)
            << badStep;
    }
    EXPECT_EXIT(EncodedImage::deserialize(corrupt(24, 0x801)),
                ::testing::ExitedWithCode(1), "flags");
    // A tile size that no longer matches the stored tile count.
    EXPECT_EXIT(EncodedImage::deserialize(corrupt(12, 32)),
                ::testing::ExitedWithCode(1), "tile count");
    // Per-edge-legal dimensions whose product would drive a huge
    // decoded-plane allocation must be rejected up front.
    std::vector<uint8_t> huge = corrupt(4, 1u << 20);
    uint32_t bigHeight = 1u << 20;
    std::memcpy(huge.data() + 8, &bigHeight, 4);
    EXPECT_EXIT(EncodedImage::deserialize(huge),
                ::testing::ExitedWithCode(1), "pixel cap");
}

TEST(CodecDeath, EncodeRejectsTilesOffTheOneChunkGrid)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Every EPC5 tile is one entropy chunk of at most kMaxTileSize
    // rows, so larger (or empty) tiles are a caller error.
    raster::Plane img = testImage(300, 40, 44);
    EncodeParams p;
    for (int tileSize : {0, kMaxTileSize + 1, 256}) {
        p.tileSize = tileSize;
        EXPECT_DEATH(encode(img, p), "EPC5 tiles are 1 to 128 pixels")
            << tileSize;
    }
    p.tileSize = kMaxTileSize;
    EXPECT_EQ(encode(img, p).tileCoded.size(), 3u);
}

TEST(Codec, ParallelEncodeIsByteIdenticalToSerial)
{
    // The golden determinism guarantee of the tile-execution engine:
    // tiles are independent jobs assembled in flat tile order, so the
    // stream must not depend on thread count or scheduling.
    raster::Plane img = testImage(320, 256, 23);
    raster::TileGrid grid(320, 256, 64);
    raster::TileMask roi(grid);
    for (int t = 0; t < grid.tileCount(); t += 2)
        roi.set(t, true);

    EncodeParams p;
    p.bitsPerPixel = 1.5;
    p.roi = &roi;

    util::ThreadPool::setGlobalThreads(1);
    std::vector<uint8_t> serial = encode(img, p).serialize();
    raster::Plane serialDec = decode(EncodedImage::deserialize(serial));

    for (int threads : {2, 4, 8}) {
        util::ThreadPool::setGlobalThreads(threads);
        std::vector<uint8_t> parallel = encode(img, p).serialize();
        EXPECT_EQ(parallel, serial) << "threads=" << threads;
        raster::Plane dec =
            decode(EncodedImage::deserialize(parallel));
        EXPECT_EQ(dec.data(), serialDec.data()) << "threads=" << threads;
    }
    util::ThreadPool::setGlobalThreads(
        util::ThreadPool::defaultThreadCount());
}

TEST(Codec, ScalarAndSimdStreamsAreByteIdentical)
{
    // The golden dispatch guarantee: every available SIMD level must
    // produce the exact bytes the scalar kernels produce, at low and
    // high budgets, including image/tile sizes that leave vector-width
    // tails in both row and column passes, and 96-px tiles whose
    // maxPlane scans and bitplane masks span two words per row.
    raster::Plane img = testImage(203, 131, 24);
    struct Mode
    {
        const char *name;
        EncodeParams params;
    };
    std::vector<Mode> modes(3);
    modes[0].name = "cdf97";
    modes[0].params.bitsPerPixel = 1.5;
    modes[0].params.tileSize = 61;
    modes[1].name = "cdf97/8bpp";
    modes[1].params.bitsPerPixel = 8.0;
    modes[1].params.tileSize = 61;
    modes[2].name = "cdf97/96";
    modes[2].params.bitsPerPixel = 1.5;
    modes[2].params.tileSize = 96;

    util::simd::Level prev = util::simd::activeLevel();
    for (const Mode &mode : modes) {
        util::simd::setActiveLevel(util::simd::Level::Scalar);
        std::vector<uint8_t> golden = encode(img, mode.params).serialize();
        raster::Plane goldenDec =
            decode(EncodedImage::deserialize(golden));
        for (util::simd::Level l : kernels::availableLevels()) {
            util::simd::setActiveLevel(l);
            std::vector<uint8_t> bytes =
                encode(img, mode.params).serialize();
            EXPECT_EQ(bytes, golden)
                << mode.name << " at " << util::simd::levelName(l);
            raster::Plane dec = decode(EncodedImage::deserialize(bytes));
            EXPECT_EQ(dec.data(), goldenDec.data())
                << mode.name << " at " << util::simd::levelName(l);
        }
    }
    util::simd::setActiveLevel(prev);
}

TEST(Codec, RunPositionPastTheRunIsClamped)
{
    // A cleanup zero run of n candidates names its first 1 in
    // ceil(log2 n) raw bits, so when n is not a power of two the bits
    // can name a k >= n, which only a corrupt segment holds. Craft one:
    // the top plane's cleanup pass starts with the run from row 0's
    // first coefficient to its first orientation edge, coded as "holds
    // a 1" under a fresh model and position bits all 1. The decoder
    // must clamp k to the run's last candidate, never index past it.
    constexpr int kSize = 48;
    constexpr int kLevels = 4;
    constexpr int kPlane = 5;
    const auto geom = TileGeometry::of(kSize, kSize, kLevels);
    const int n = geom->edges[0] != 0
        ? util::countTrailingZeros(geom->edges[0])
        : kSize;
    ASSERT_NE(n & (n - 1), 0) << "a run of " << n << " cannot overflow";
    const int bits = util::bitWidth(static_cast<uint32_t>(n - 1));
    ASSERT_GE((1 << bits) - 1, n);

    std::vector<uint8_t> body;
    {
        RangeEncoder enc(body);
        BitModel fresh;
        enc.encodeBit(fresh, 1);
        for (int i = 0; i < bits; ++i)
            enc.encodeBitRaw(1);
        enc.encodeBitRaw(0); // the sign of the new significant one
        enc.flush();
    }
    // Sub-chunk: u32 chunk length | maxPlane + 1 | one segment of the
    // plane's three passes, `u32 len << 2 | (passes - 1) | body`.
    std::vector<uint8_t> chunk{static_cast<uint8_t>(kPlane + 1)};
    util::appendPod(chunk, static_cast<uint32_t>(body.size() << 2 | 2u));
    chunk.insert(chunk.end(), body.begin(), body.end());
    std::vector<uint8_t> sub;
    util::appendPod(sub, static_cast<uint32_t>(chunk.size()));
    sub.insert(sub.end(), chunk.begin(), chunk.end());

    const size_t pixels = static_cast<size_t>(kSize) * kSize;
    std::vector<uint32_t> magnitude(pixels, 0);
    std::vector<uint8_t> sign(pixels, 0), lowPlane(pixels, 0);
    TileDecoder dec(*geom, magnitude.data(), sign.data(), lowPlane.data());
    dec.decodeHeaderByte(kPlane + 1);
    RangeDecoder rd(body.data(), body.size());
    dec.decodePassRun(rd, 3);
    dec.finish();
    for (int x = 0; x + 1 < n; ++x)
        EXPECT_EQ(magnitude[static_cast<size_t>(x)], 0u) << x;
    EXPECT_EQ(magnitude[static_cast<size_t>(n - 1)], 1u << kPlane);

    util::simd::Level prev = util::simd::activeLevel();
    util::simd::setActiveLevel(util::simd::Level::Scalar);
    const raster::Plane ref =
        decodeTile(kSize, kSize, kLevels, {sub.data(), sub.size()});
    for (util::simd::Level l : kernels::availableLevels()) {
        util::simd::setActiveLevel(l);
        EXPECT_EQ(
            decodeTile(kSize, kSize, kLevels, {sub.data(), sub.size()})
                .data(),
            ref.data())
            << util::simd::levelName(l);
    }
    util::simd::setActiveLevel(prev);
}

TEST(Codec, SimdLevelsAgreeOnOddTileWidths)
{
    // Tile widths deliberately not divisible by any vector width (4 or
    // 8): every tile exercises the narrow-column fallback path.
    raster::Plane img = testImage(130, 97, 25);
    util::simd::Level prev = util::simd::activeLevel();
    for (int tileSize : {5, 17, 33, 65}) {
        EncodeParams p;
        p.bitsPerPixel = 2.0;
        p.tileSize = tileSize;
        util::simd::setActiveLevel(util::simd::Level::Scalar);
        std::vector<uint8_t> golden = encode(img, p).serialize();
        for (util::simd::Level l : kernels::availableLevels()) {
            util::simd::setActiveLevel(l);
            EXPECT_EQ(encode(img, p).serialize(), golden)
                << "tileSize=" << tileSize << " at "
                << util::simd::levelName(l);
        }
    }
    util::simd::setActiveLevel(prev);
}

TEST(Codec, DecodeTilesSinglePixelImage)
{
    raster::Plane img(1, 1, 0.75f);
    EncodeParams p;
    p.bitsPerPixel = 1024.0; // 128 bytes: every plane of the one pixel
    EncodedImage enc = encode(img, p);
    auto tiles = decodeTiles(enc, {0});
    ASSERT_EQ(tiles.size(), 1u);
    ASSERT_EQ(tiles[0].width(), 1);
    ASSERT_EQ(tiles[0].height(), 1);
    EXPECT_NEAR(tiles[0].at(0, 0), 0.75f, kQuantStep);
}

TEST(Codec, DecodeTilesFullImageSingleTile)
{
    // Tile size larger than the image: the whole image is one ragged
    // tile and tile 0 must decode to the full-frame decode.
    raster::Plane img = testImage(75, 53, 26);
    EncodeParams p;
    p.bitsPerPixel = 2.0;
    p.tileSize = 128;
    EncodedImage enc = encode(img, p);
    raster::Plane full = decode(enc);
    auto tiles = decodeTiles(enc, {0});
    ASSERT_EQ(tiles.size(), 1u);
    ASSERT_EQ(tiles[0].width(), 75);
    ASSERT_EQ(tiles[0].height(), 53);
    EXPECT_EQ(tiles[0].data(), full.data());
}

TEST(Codec, DecodeTilesEmptyListAndDuplicates)
{
    raster::Plane img = testImage(128, 128, 27);
    EncodeParams p;
    p.bitsPerPixel = 1.0;
    EncodedImage enc = encode(img, p);
    EXPECT_TRUE(decodeTiles(enc, {}).empty());

    auto dup = decodeTiles(enc, {2, 2, 0, 2});
    ASSERT_EQ(dup.size(), 4u);
    EXPECT_EQ(dup[0].data(), dup[1].data());
    EXPECT_EQ(dup[0].data(), dup[3].data());
    raster::TileGrid grid(128, 128, p.tileSize);
    raster::TileRect r = grid.rect(0);
    EXPECT_EQ(dup[2].width(), r.width);
}

TEST(Codec, DecodeTilesRaggedEdges)
{
    // 100x70 with 64-pixel tiles: right column is 36 wide, bottom row
    // 6 tall, corner tile 36x6.
    raster::Plane img = testImage(100, 70, 28);
    EncodeParams p;
    p.bitsPerPixel = 2.0;
    EncodedImage enc = encode(img, p);
    raster::Plane full = decode(enc);
    raster::TileGrid grid(100, 70, p.tileSize);
    ASSERT_EQ(grid.tileCount(), 4);
    std::vector<int> all{0, 1, 2, 3};
    auto tiles = decodeTiles(enc, all);
    for (int t = 0; t < 4; ++t) {
        raster::TileRect r = grid.rect(t);
        raster::Plane expect = full.crop(r.x0, r.y0, r.width, r.height);
        ASSERT_EQ(tiles[static_cast<size_t>(t)].width(), r.width);
        ASSERT_EQ(tiles[static_cast<size_t>(t)].height(), r.height);
        EXPECT_EQ(tiles[static_cast<size_t>(t)].data(), expect.data())
            << "tile " << t;
    }
}

TEST(CodecDeath, DecodeTilesRejectsOutOfRangeIndices)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    raster::Plane img = testImage(128, 128, 29);
    EncodeParams p;
    p.bitsPerPixel = 1.0;
    EncodedImage enc = encode(img, p);
    EXPECT_DEATH(decodeTiles(enc, {-1}), "outside grid");
    EXPECT_DEATH(decodeTiles(enc, {4}), "outside grid");
}

TEST(Codec, NonMultipleTileSizes)
{
    raster::Plane img = testImage(200, 136, 11);
    EncodeParams p;
    p.bitsPerPixel = 2.0;
    EncodedImage enc = encode(img, p);
    raster::Plane dec = decode(enc);
    ASSERT_EQ(dec.width(), 200);
    ASSERT_EQ(dec.height(), 136);
    EXPECT_GT(raster::psnr(img, dec), 35.0);
}

TEST(Codec, StreamByteIdenticalAcrossThreadCounts)
{
    // Tile jobs are pure functions assembled in fixed order, so every
    // thread count gives one exact stream and reconstruction. The same
    // encode issued from inside a parallelMap item, where the tile loop
    // runs inline, must give the same bytes and the same
    // reconstruction. Inputs: a ragged grid of 96- and 8-row tiles, and
    // one lone 128-px tile, whose one-item tile loop is not a parallel
    // region.
    struct Input
    {
        raster::Plane img;
        EncodeParams p;
    };
    EncodeParams ragged;
    ragged.bitsPerPixel = 1.5;
    ragged.tileSize = 96;
    EncodeParams lone;
    lone.bitsPerPixel = 1.5;
    lone.tileSize = kMaxTileSize;
    const Input inputs[] = {{testImage(300, 200, 30), ragged},
                            {testImage(128, 128, 31), lone}};

    for (const Input &in : inputs) {
        SCOPED_TRACE(testing::Message() << "tile=" << in.p.tileSize);
        util::ThreadPool::setGlobalThreads(1);
        raster::Plane serialRecon;
        std::vector<uint8_t> serial =
            encode(in.img, in.p, &serialRecon).serialize();
        raster::Plane serialDec = decode(EncodedImage::deserialize(serial));

        for (int threads : {2, 7, util::ThreadPool::defaultThreadCount()}) {
            util::ThreadPool::setGlobalThreads(threads);
            raster::Plane recon;
            std::vector<uint8_t> bytes =
                encode(in.img, in.p, &recon).serialize();
            EXPECT_EQ(bytes, serial) << "threads=" << threads;
            EXPECT_EQ(recon.data(), serialRecon.data())
                << "threads=" << threads;
            raster::Plane dec = decode(EncodedImage::deserialize(bytes));
            EXPECT_EQ(dec.data(), serialDec.data()) << "threads=" << threads;

            auto nested = util::parallelMap(2, [&](size_t i) {
                std::pair<std::vector<uint8_t>, raster::Plane> r;
                if (i == 0)
                    r.first = encode(in.img, in.p, &r.second).serialize();
                return r;
            });
            EXPECT_EQ(nested[0].first, serial)
                << "nested, threads=" << threads;
            EXPECT_EQ(nested[0].second.data(), serialRecon.data())
                << "nested, threads=" << threads;
        }
    }
    util::ThreadPool::setGlobalThreads(
        util::ThreadPool::defaultThreadCount());
}

TEST(Codec, StageHistogramsRecordOnEveryEncodePath)
{
    // Every encode records its stage timers — one codec.transform_ns
    // and one codec.entropy_chunk_ns sample per coded tile — whether
    // its tile loop fans out at top level, runs inline inside a
    // parallelMap item (a constellation run's per-location job) or
    // runs on a single-lane pool.
    raster::Plane img = testImage(200, 136, 42);
    EncodeParams p;
    p.bitsPerPixel = 1.0;
    p.tileSize = 64;
    raster::TileGrid grid(img.width(), img.height(), p.tileSize);
    raster::TileMask roi(grid);
    uint64_t tiles = 0;
    for (int t = 0; t < grid.tileCount(); ++t) {
        if (t % 3 == 1)
            continue;
        roi.set(t, true);
        ++tiles;
    }
    p.roi = &roi;
    ASSERT_GT(tiles, 1u);

    telemetry::Histogram &transformNs =
        telemetry::histogram("codec.transform_ns");
    telemetry::Histogram &entropyChunkNs =
        telemetry::histogram("codec.entropy_chunk_ns");
    auto expectRecorded = [&](const char *path, auto &&run) {
        SCOPED_TRACE(path);
        const uint64_t transform0 = transformNs.count();
        const uint64_t entropy0 = entropyChunkNs.count();
        run();
        EXPECT_EQ(transformNs.count() - transform0, tiles);
        EXPECT_EQ(entropyChunkNs.count() - entropy0, tiles);
    };

    util::ThreadPool::setGlobalThreads(4);
    expectRecorded("top level, 4 lanes", [&] { encode(img, p); });
    expectRecorded("inside a parallelMap item", [&] {
        util::parallelMap(2, [&](size_t i) {
            if (i == 0)
                encode(img, p);
            return 0;
        });
    });
    util::ThreadPool::setGlobalThreads(1);
    expectRecorded("1 lane", [&] { encode(img, p); });
    util::ThreadPool::setGlobalThreads(
        util::ThreadPool::defaultThreadCount());
}

TEST(Codec, ConcurrentEncodesShareThePoolSafely)
{
    // Several external threads drive encodes through the one
    // global pool at once (the tile server's serve threads do exactly
    // this on decode); every stream must come out identical. Run
    // under TSan via `ci/check.sh tsan`.
    raster::Plane img = testImage(192, 192, 34);
    EncodeParams p;
    p.bitsPerPixel = 1.0;
    p.tileSize = 96;
    std::vector<uint8_t> expect = encode(img, p).serialize();

    std::vector<std::vector<uint8_t>> got(4);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < got.size(); ++i)
        threads.emplace_back(
            [&, i] { got[i] = encode(img, p).serialize(); });
    for (auto &t : threads)
        t.join();
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expect) << "thread " << i;
}

TEST(Codec, FlatImageIsTiny)
{
    raster::Plane img(256, 256, 0.5f);
    EncodeParams p;
    p.bitsPerPixel = 2.0;
    EncodedImage enc = encode(img, p);
    // A flat image has all-zero coefficients: headers only.
    EXPECT_LT(enc.totalBytes(), 400u);
    raster::Plane dec = decode(enc);
    EXPECT_GT(raster::psnr(img, dec), 50.0);
}

namespace {

/** True when two planes have the same shape and the same bits. */
bool
bitIdentical(const raster::Plane &a, const raster::Plane &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

/**
 * Where every tile's entropy chunk in an EPC5 stream stopped: the
 * number of passes coded into its last, unfinished plane (0..2), or 3
 * once the chunk coded every plane. Read from the stream's own framing
 * — each `subLen | ecLen | chunk` sub-chunk's maxPlane + 1 byte and its
 * segment pass counts.
 */
std::vector<int>
chunkStops(const EncodedImage &e)
{
    size_t coded = 0;
    for (uint8_t f : e.tileCoded)
        coded += f;
    const uint8_t *data = e.payload.data();
    std::vector<int> stops;
    size_t pos = 0;
    for (size_t slot = 0; slot < coded; ++slot) {
        const uint32_t len = util::readPodAt<uint32_t>(data, pos + 4);
        pos += 8;
        const int planes = data[pos];
        // Segments are `u32 segWord | body`, with
        // segWord = body length << 2 | (passes - 1).
        int passes = 0;
        size_t seg = pos + 1;
        while (seg < pos + len) {
            const uint32_t word = util::readPodAt<uint32_t>(data, seg);
            passes += static_cast<int>(word & 3u) + 1;
            seg += 4 + (word >> 2);
        }
        EXPECT_EQ(seg, pos + len);
        stops.push_back(passes == 3 * planes ? 3 : passes % 3);
        pos += len;
    }
    return stops;
}

} // namespace

TEST(Codec, EncoderReconstructionMatchesDecode)
{
    // The decoder-equivalent state rule (docs/ARCHITECTURE.md): the
    // reconstruction encode() builds from its own coefficient state is
    // bit-identical to decoding the stream it wrote, in memory and
    // after a serialize round trip — over budgets and tile sizes, on
    // ragged images, ROI subsets and budgets starved enough to stop
    // mid-plane. The sweep runs on one lane and on four.
    //
    // 0.02 and 0.25 bpp are the starved budgets: at 0.02 bpp a tile
    // spends its bytes in the cleanup pass of its first planes and so
    // stops on a plane boundary; at 0.25 bpp tiles also stop after
    // pass 0 or pass 1 of a plane.
    const double budgets[] = {0.02, 0.25, 1.0};
    const std::pair<int, int> shapes[] = {{150, 110}, {97, 201}};

    int compared = 0;
    int starvedStops[4] = {0, 0, 0, 0};
    for (int threads : {1, 4}) {
        util::ThreadPool::setGlobalThreads(threads);
        for (const auto &[w, h] : shapes) {
            raster::Plane img = testImage(w, h, 40u + static_cast<uint64_t>(w));
            for (int tileSize : {32, 64, 128}) {
                raster::TileGrid grid(w, h, tileSize);
                raster::TileMask all(grid, true);
                raster::TileMask subset(grid);
                for (int t = 0; t < grid.tileCount(); ++t)
                    subset.set(t, t % 3 != 1);
                for (double bpp : budgets) {
                    for (const raster::TileMask *roi : {&all, &subset}) {
                        SCOPED_TRACE(testing::Message()
                                     << "threads=" << threads << " " << w
                                     << "x" << h << " tile=" << tileSize
                                     << " bpp=" << bpp << " roi="
                                     << (roi == &all ? "all" : "subset"));
                        EncodeParams p;
                        p.bitsPerPixel = bpp;
                        p.tileSize = tileSize;
                        p.roi = roi;
                        raster::Plane recon;
                        EncodedImage e = encode(img, p, &recon);
                        ASSERT_TRUE(bitIdentical(recon, decode(e)));
                        ASSERT_TRUE(bitIdentical(
                            recon, decode(EncodedImage::deserialize(
                                       e.serialize()))));
                        compared += 2;
                        if (bpp < 0.5)
                            for (int stop : chunkStops(e))
                                ++starvedStops[stop];
                    }
                }
            }
        }
    }
    util::ThreadPool::setGlobalThreads(
        util::ThreadPool::defaultThreadCount());
    EXPECT_EQ(compared, 2 * 2 * 3 * 3 * 2 * 2);
    // The starved budgets really do stop tiles after pass 0 and after
    // pass 1 of a plane, the two states in which only part of the
    // plane's coefficients carry their plane bit.
    EXPECT_GT(starvedStops[1], 0);
    EXPECT_GT(starvedStops[2], 0);
}

TEST(Codec, EncoderReconstructionOfEmptyRoiIsZero)
{
    raster::Plane img = testImage(97, 201, 41);
    raster::TileGrid grid(97, 201, 64);
    raster::TileMask none(grid);
    EncodeParams p;
    p.roi = &none;
    raster::Plane recon(1, 1, 0.5f);
    EncodedImage e = encode(img, p, &recon);
    EXPECT_TRUE(bitIdentical(recon, decode(e)));
    EXPECT_TRUE(bitIdentical(recon, raster::Plane(97, 201, 0.0f)));
}

TEST(Codec, BandListEncodeMatchesPerBandEncode)
{
    // One encode() over a band list runs every band's coded tiles as
    // one job list. Each band's stream and reconstruction must still be
    // exactly what its own single-plane encode gives: on one lane, on
    // four, and from inside a parallelMap item, where the tile loop
    // runs inline. Four bands with ROIs of 64, 15, 1 and 0 tiles, each
    // at its own budget.
    const int kSide = 256;
    const int kRoiTiles[] = {64, 15, 1, 0};
    raster::TileGrid grid(kSide, kSide, 32);
    ASSERT_EQ(grid.tileCount(), 64);
    std::vector<raster::Plane> imgs;
    std::vector<raster::TileMask> rois;
    for (int b = 0; b < 4; ++b) {
        imgs.push_back(testImage(kSide, kSide, 90u + static_cast<uint64_t>(b)));
        raster::TileMask roi(grid);
        // 7 is coprime with 64, so the k * 7 are distinct tiles.
        for (int k = 0; k < kRoiTiles[b]; ++k)
            roi.set((k * 7) % 64, true);
        EXPECT_EQ(roi.countSet(), kRoiTiles[b]);
        rois.push_back(roi);
    }

    for (bool withRecon : {false, true}) {
        SCOPED_TRACE(testing::Message() << "recon=" << withRecon);
        std::vector<BandEncode> bands(4);
        std::vector<raster::Plane> recons(4);
        for (size_t b = 0; b < 4; ++b) {
            bands[b].img = &imgs[b];
            bands[b].params.tileSize = 32;
            bands[b].params.bitsPerPixel = 0.5 + static_cast<double>(b);
            bands[b].params.roi = &rois[b];
            bands[b].reconstruction = withRecon ? &recons[b] : nullptr;
        }

        util::ThreadPool::setGlobalThreads(1);
        std::vector<std::vector<uint8_t>> want(4);
        std::vector<raster::Plane> wantRecon(4);
        for (size_t b = 0; b < 4; ++b)
            want[b] = encode(imgs[b], bands[b].params,
                             withRecon ? &wantRecon[b] : nullptr)
                          .serialize();

        auto expectMatches = [&](const std::vector<EncodedImage> &got,
                                 const char *path) {
            SCOPED_TRACE(path);
            ASSERT_EQ(got.size(), 4u);
            for (size_t b = 0; b < 4; ++b) {
                EXPECT_EQ(got[b].serialize(), want[b]) << "band " << b;
                if (withRecon) {
                    EXPECT_TRUE(bitIdentical(recons[b], wantRecon[b]))
                        << "band " << b;
                }
                recons[b] = raster::Plane();
            }
        };
        for (int threads : {1, 4}) {
            util::ThreadPool::setGlobalThreads(threads);
            expectMatches(encode(bands),
                          threads == 1 ? "1 lane" : "4 lanes");
        }
        auto nested = util::parallelMap(2, [&](size_t i) {
            return i == 0 ? encode(bands) : std::vector<EncodedImage>();
        });
        expectMatches(nested[0], "inside a parallelMap item");
    }
    util::ThreadPool::setGlobalThreads(
        util::ThreadPool::defaultThreadCount());
}

TEST(Codec, OddGeometrySweepDecodesToEncoderState)
{
    // 128-px tiles, so up to width 128 the tile width is the image
    // width: width 1 and 2 are one short word, 63/64/65 put the last
    // coefficient on bit 62, 63 or 0 of a row's last word, and 127/128
    // fill a second word. Width 129 is two tiles, a full 128-px one and
    // a 1-px one (the 3-word row path is pinned by the 130-wide
    // kGoldenV3 tiles). The cleanup pass's zero runs stop at bit 63, at
    // the partial last word's end and at orientation edges in all of
    // these. Sparse content makes long runs, dense content short ones;
    // 0.25 bpp and 2 bpp stop tiles mid-plane, 8 bpp codes low planes
    // too.
    const double budgets[] = {0.25, 2.0, 8.0};
    int stops[4] = {0, 0, 0, 0};
    for (int w : {1, 2, 63, 64, 65, 127, 128, 129}) {
        for (int h : {1, 5, 64}) {
            for (bool sparse : {true, false}) {
                raster::Plane img = testImage(w, h, 70u + w * 3u + h);
                if (sparse) {
                    // Mid-gray with a few changed blocks, one of them
                    // on the last column.
                    img = raster::Plane(w, h, 0.5f);
                    for (int y = 0; y < h; ++y)
                        for (int x = 0; x < w; ++x)
                            if ((x >= w - 2 && y < 3) ||
                                (x % 61 == 7 && y % 11 < 2))
                                img.at(x, y) = 0.8f;
                }
                for (double bpp : budgets) {
                    SCOPED_TRACE(testing::Message()
                                 << w << "x" << h << " sparse=" << sparse
                                 << " bpp=" << bpp);
                    EncodeParams p;
                    p.bitsPerPixel = bpp;
                    p.tileSize = kMaxTileSize;
                    raster::Plane recon;
                    EncodedImage e = encode(img, p, &recon);
                    ASSERT_TRUE(bitIdentical(recon, decode(e)));
                    for (int stop : chunkStops(e))
                        ++stops[stop];

                    // A 25% cut still parses and decodes.
                    const std::vector<uint8_t> bytes = e.serialize();
                    const size_t budget = std::max(
                        streamHeaderFloor(bytes), bytes.size() / 4);
                    raster::Plane cut = decode(EncodedImage::deserialize(
                        truncateStream(bytes, budget)));
                    ASSERT_EQ(cut.width(), w);
                    ASSERT_EQ(cut.height(), h);
                    for (float v : cut.data())
                        ASSERT_TRUE(v >= 0.0f && v <= 1.0f);
                }
            }
        }
    }
    // The sweep does stop tiles after pass 0 and after pass 1 of a
    // plane, and also codes some to the end.
    EXPECT_GT(stops[1], 0);
    EXPECT_GT(stops[2], 0);
    EXPECT_GT(stops[3], 0);
}

TEST(Codec, DilateRowMatchesPerPixelDefinition)
{
    // The significance scans' candidate rows: bit x is the OR of the
    // row's x-1 and x+1 and the rows above and below at x, with no
    // neighbor outside the row or past a missing border row. Widths
    // cover one short word, the word edges and three words.
    for (int width : {1, 5, 63, 64, 65, 130, 200}) {
        const int nw = (width + 63) / 64;
        Rng rng(9100 + static_cast<uint64_t>(width));
        auto randomRow = [&]() {
            std::vector<uint64_t> row(static_cast<size_t>(nw), 0);
            for (int x = 0; x < width; ++x)
                if (rng.bernoulli(0.3))
                    row[static_cast<size_t>(x) / 64] |= 1ull << (x % 64);
            return row;
        };
        std::vector<uint64_t> up = randomRow();
        std::vector<uint64_t> cur = randomRow();
        std::vector<uint64_t> down = randomRow();
        auto bitAt = [&](const std::vector<uint64_t> &row, int x) {
            if (x < 0 || x >= width)
                return 0u;
            return static_cast<unsigned>(
                (row[static_cast<size_t>(x) / 64] >> (x % 64)) & 1u);
        };
        for (int borders = 0; borders < 4; ++borders) {
            const uint64_t *pu = (borders & 1) ? nullptr : up.data();
            const uint64_t *pd = (borders & 2) ? nullptr : down.data();
            std::vector<uint64_t> out(static_cast<size_t>(nw), ~0ull);
            dilateRow(pu, cur.data(), pd, nw, out.data());
            for (int x = 0; x < width; ++x) {
                unsigned expect = bitAt(cur, x - 1) | bitAt(cur, x + 1) |
                                  (pu ? bitAt(up, x) : 0u) |
                                  (pd ? bitAt(down, x) : 0u);
                const uint64_t got =
                    (out[static_cast<size_t>(x) / 64] >> (x % 64)) & 1u;
                ASSERT_EQ(got, static_cast<uint64_t>(expect))
                    << "x=" << x << " width=" << width
                    << " borders=" << borders;
            }
        }
    }
}

TEST(Codec, SharedGeometryAcrossShapesAndThreads)
{
    // Every coder of one (width, height, levels) reads the one shared
    // TileGeometry. Interleave shapes — one short word, thin strips,
    // a lone pixel, the 130-wide three-word rows of the golden shape
    // and the largest tile — at levels 0-5 and two budgets, encoding and
    // decoding on 4 pool lanes at once: every stream and pixel must
    // equal the job's own run on one thread, and the shared geometry
    // must still equal a freshly built one. Run under TSan via
    // `ci/check.sh tsan`.
    struct Shape
    {
        int w;
        int h;
    };
    const Shape shapes[] = {{64, 64}, {64, 17}, {17, 64},
                            {1, 1},   {130, 70}, {128, 128}};
    struct Job
    {
        raster::Plane tile;
        int levels;
        size_t budget;
        std::vector<uint8_t> stream;
        raster::Plane pixels;
    };
    std::vector<Job> jobs;
    for (int levels = 0; levels <= 5; ++levels) {
        for (const Shape &s : shapes) {
            // 4 and 1 pixels per byte: 2 and 8 bpp.
            for (size_t pixelsPerByte : {4, 1}) {
                Job j;
                j.tile = testImage(s.w, s.h,
                                   900u + static_cast<uint64_t>(
                                              jobs.size()));
                j.levels = levels;
                j.budget =
                    static_cast<size_t>(s.w * s.h) / pixelsPerByte + 8;
                jobs.push_back(std::move(j));
            }
        }
    }
    auto run = [](const Job &j) {
        std::vector<uint8_t> stream =
            encodeTile(j.tile, j.levels, j.budget);
        raster::Plane pixels =
            decodeTile(j.tile.width(), j.tile.height(), j.levels,
                       ChunkSpan{stream.data(), stream.size()});
        return std::make_pair(std::move(stream), std::move(pixels));
    };
    for (Job &j : jobs)
        std::tie(j.stream, j.pixels) = run(j);

    util::ThreadPool pool(4);
    for (size_t round = 0; round < 3; ++round) {
        // Neighboring items, which run on different lanes at once,
        // come from different shapes and levels.
        auto order = [&](size_t i) {
            return (i * 7 + round) % jobs.size();
        };
        auto got = util::parallelMap(pool, jobs.size(), [&](size_t i) {
            return run(jobs[order(i)]);
        });
        for (size_t i = 0; i < got.size(); ++i) {
            const Job &j = jobs[order(i)];
            SCOPED_TRACE(testing::Message()
                         << j.tile.width() << "x" << j.tile.height()
                         << " levels=" << j.levels
                         << " budget=" << j.budget);
            ASSERT_EQ(got[i].first, j.stream);
            ASSERT_TRUE(bitIdentical(got[i].second, j.pixels));
        }
    }

    for (int levels = 0; levels <= 5; ++levels) {
        for (const Shape &s : shapes) {
            auto shared = TileGeometry::of(s.w, s.h, levels);
            EXPECT_EQ(shared, TileGeometry::of(s.w, s.h, levels));
            const TileGeometry fresh(s.w, s.h, levels);
            EXPECT_EQ(shared->orient, fresh.orient);
            EXPECT_EQ(shared->edges, fresh.edges);
        }
    }
}

TEST(CodecDeath, GeometryCacheStopsSharingPastItsCap)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Stream headers pick tile shapes, so the shared geometry map must
    // not grow without bound: past kSharedShapes shapes, of() builds a
    // private geometry per call. Filling the map would leave later
    // tests unshared, so the check runs in a child process, which
    // starts with an empty map.
    const int cap = static_cast<int>(TileGeometry::kSharedShapes);
    EXPECT_EXIT(
        {
            for (int h = 1; h <= cap + 1; ++h)
                TileGeometry::of(1, h, 0);
            const auto kept = TileGeometry::of(1, 1, 0);
            const auto a = TileGeometry::of(1, cap + 1, 0);
            const auto b = TileGeometry::of(1, cap + 1, 0);
            const TileGeometry fresh(1, cap + 1, 0);
            const bool ok = kept == TileGeometry::of(1, 1, 0) && a != b &&
                            a->orient == fresh.orient &&
                            a->edges == fresh.edges;
            std::exit(ok ? 0 : 1);
        },
        testing::ExitedWithCode(0), "");
}

/**
 * @file
 * Golden-stream fixtures for the tile bitplane coder.
 *
 * The encoded byte stream is a wire/storage format: the ground archive
 * persists it and the downlink replays it, so any change to the coder
 * must either be byte-identical or come with an explicit format
 * migration. These tests pin the one stream format, EPC5, over fixed
 * synthetic tiles of its one mode (CDF 9/7 at 2 bpp) x odd/even tile
 * sizes, at every SIMD dispatch level and thread-pool width, as data
 * rather than as a second implementation:
 *
 *  - kGoldenV3 pins the bytes the encoder writes;
 *  - kDecodedV3 pins the pixels the decoder reconstructs from them;
 *  - kDecodedFullDepth pins the pixels of every fixture coded to its
 *    last plane, which no stream-format change may move;
 *  - kGoldenCut pins the bytes codec::truncateStream() cuts whole
 *    streams to; codec::decodeTiles() at the same budgets, which is how
 *    the tile server serves a quality hint, must decode the cuts'
 *    pixels bit for bit.
 *
 * Fixture content is generated from Rng only (integer-based
 * xoshiro256**) with no libm calls, so the tiles — and therefore the
 * streams — are identical on every platform.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "codec/codec.hh"
#include "codec/kernels.hh"
#include "codec/tile_coder.hh"
#include "raster/plane.hh"
#include "util/crc32.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/simd.hh"

using namespace earthplus;
using namespace earthplus::codec;

namespace {

/** Blocky texture + gradient + noise; deterministic, libm-free. */
raster::Plane
texturedTile(int w, int h, uint64_t seed)
{
    raster::Plane p(w, h);
    Rng rng(seed);
    const int block = 8;
    int bw = (w + block - 1) / block;
    std::vector<float> blocks(static_cast<size_t>(bw) *
                              static_cast<size_t>((h + block - 1) / block));
    for (auto &v : blocks)
        v = static_cast<float>(rng.uniform());
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
            float base = blocks[static_cast<size_t>(y / block) * bw +
                                static_cast<size_t>(x / block)];
            float grad = static_cast<float>(x + 2 * y) /
                         static_cast<float>(w + 2 * h);
            float noise = static_cast<float>(rng.uniform()) * 0.08f;
            p.at(x, y) = 0.2f + 0.45f * base + 0.25f * grad + noise;
        }
    return p;
}

/** Change-delta-like tile: mid-gray except a few flat clusters. */
raster::Plane
sparseDeltaTile(int w, int h, uint64_t seed)
{
    raster::Plane p(w, h, 0.5f);
    Rng rng(seed);
    for (int c = 0; c < 4; ++c) {
        int cx = static_cast<int>(rng.uniformInt(0, w - 1));
        int cy = static_cast<int>(rng.uniformInt(0, h - 1));
        int r = static_cast<int>(rng.uniformInt(1, 4));
        float amp = static_cast<float>(rng.uniform(-0.25, 0.25));
        for (int y = cy - r < 0 ? 0 : cy - r;
             y < (cy + r + 1 > h ? h : cy + r + 1); ++y)
            for (int x = cx - r < 0 ? 0 : cx - r;
                 x < (cx + r + 1 > w ? w : cx + r + 1); ++x)
                p.at(x, y) = 0.5f + amp;
    }
    return p;
}

struct GoldenFixture
{
    const char *content; ///< "textured" or "sparse".
    int w, h;
    size_t bytes; ///< Encoded sub-chunk size.
    uint32_t crc;     ///< CRC32 of the sub-chunk.
};

/**
 * EPC5 fixtures, one entropy chunk per tile, pinning the segment
 * words, per-segment coder flushes and the encoder's stop on real
 * payload bytes. 130 wide = 3 packed words per row with a 2-bit ragged
 * tail, which pins the cross-word paths (bit-63 recruitment into the
 * next word, left/right carries, multi-word dilation); encodeTile()
 * takes any tile, though codec::encode() caps tiles at kMaxTileSize.
 * Recorded deliberately when the progressive format was introduced
 * (the EPC4 migration), again when rate control moved off the shadow
 * coder, once more when multi-layer encoding was retired, and when
 * lossy 5/3 was retired (its four rows went with it, and sparse 130x70
 * cdf97 took the place of the one sparse lossy row on the 3-word
 * path). Every row used to be coded in 32-row chunks; when sub-tile
 * chunks were retired (one chunk per tile) each row was re-recorded
 * with the tile as its one chunk, by the last encoder and decoder that
 * still coded sub-tile chunks, so the reference does not depend on the
 * deletion. Of the decoded pixels only the three textured rows moved.
 * When lossless 5/3 was retired its six rows went with it; no cdf97
 * row moved. The mode column, constant once one mode was left, was
 * dropped later without re-recording any value. Every row was
 * re-recorded when EPC5 replaced EPC4 — a cleanup zero run codes one
 * decision and the position of its first 1 instead of a decision per
 * candidate, so every chunk's bytes moved — while kDecodedV3 stayed as
 * recorded and kDecodedFullDepth, recorded by the EPC4 coder, still
 * holds. See the worked examples in docs/ARCHITECTURE.md.
 * Regenerate by running this binary with EARTHPLUS_PRINT_GOLDEN=1 and
 * pasting the printed rows.
 */
const GoldenFixture kGoldenV3[] = {
    {"textured", 64, 64, 1160u, 0x49922CFCu},
    {"textured", 61, 47, 745u, 0x5FD09BFCu},
    {"textured", 130, 70, 2552u, 0xFCACAFFAu},
    {"sparse", 64, 64, 538u, 0x56174589u},
    {"sparse", 61, 47, 497u, 0x35C24F9Du},
    {"sparse", 130, 70, 711u, 0xCCD12976u},
};

/**
 * CRC32 of the decoded float pixels of every kGoldenV3 row, in table
 * order. Printed with the rows by EARTHPLUS_PRINT_GOLDEN=1; a change
 * here without a change in kGoldenV3 is a decoder change.
 */
const uint32_t kDecodedV3[] = {
    0x2353B43Eu, 0x3F6FD8CEu, 0x227BE1C5u,
    0x8227BB1Au, 0x08377752u, 0xE10E9CA9u,
};
static_assert(std::size(kDecodedV3) == std::size(kGoldenV3));

/**
 * CRC32 of the decoded float pixels of every kGoldenV3 tile encoded at
 * a SIZE_MAX budget, in table order. Every plane is coded, so each
 * coefficient decodes to its exact quantized value whatever the
 * stream grammar: these rows hold across format changes, and a change
 * here is a transform, quantizer or coefficient-coding fault. Recorded
 * with the EPC4 coder; printed by EARTHPLUS_PRINT_GOLDEN=1.
 */
const uint32_t kDecodedFullDepth[] = {
    0x3199881Fu, 0x28787E4Au, 0x6ABE9332u,
    0x8227BB1Au, 0x08377752u, 0xE10E9CA9u,
};
static_assert(std::size(kDecodedFullDepth) == std::size(kGoldenV3));

/** One whole-stream fixture for kGoldenCut. */
struct CutFixture
{
    int tileSize;
    /** CRC32 of the cut at 10, 25, 50 and 75% of the stream length. */
    uint32_t crc[4];
};

/** The budgets kGoldenCut cuts at, in percent of the stream length. */
constexpr int kCutPercents[] = {10, 25, 50, 75};

/**
 * Tile-fair cuts of whole 130x70 textured streams (codec::encode at
 * 2 bpp): a grid of tiles, some ragged, one chunk each. The cut bytes
 * are the §5 cutter's output, so they are pinned like the encoder's;
 * a decode at each budget must reproduce the decode of its cut, which
 * is what the tile server serves for a quality hint without building
 * the cut. The 48-px row was coded in 16-row chunks
 * until sub-tile chunks were retired, and was then re-recorded one
 * chunk per tile by the last code that still coded sub-tile chunks;
 * the 32-px row was one chunk per tile all along and did not change.
 * A 64-px lossless row was retired with the lossless mode, and the
 * constant mode column later, with no value re-recorded. Both rows
 * were re-recorded when EPC5 replaced EPC4, whose chunk bytes they
 * cut. Printed by EARTHPLUS_PRINT_GOLDEN=1.
 */
const CutFixture kGoldenCut[] = {
    {32, {0x08968CF7u, 0x65E3E091u, 0xEA029A88u, 0xA100251Cu}},
    {48, {0x037D17F7u, 0xB4CB6994u, 0x902C5137u, 0x1E262E43u}},
};

/** DWT levels of every fixture (EncodeParams' default). */
constexpr int kGoldenLevels = 4;

/** The fixture's exact tile content. */
raster::Plane
goldenTile(const GoldenFixture &f)
{
    uint64_t seed = 7000 + static_cast<uint64_t>(f.w) * 13 +
                    static_cast<uint64_t>(f.h) * 7;
    return std::string(f.content) == "textured"
        ? texturedTile(f.w, f.h, seed)
        : sparseDeltaTile(f.w, f.h, seed);
}

/** The fixture's chunk budget: 2 bpp. */
size_t
goldenBudget(const GoldenFixture &f)
{
    return static_cast<size_t>(f.w) * static_cast<size_t>(f.h) * 2 / 8;
}

/** CRC32 of a byte vector. */
uint32_t
bytesCrc(const std::vector<uint8_t> &bytes)
{
    return util::crc32(bytes.data(), bytes.size());
}

/** Encode one fixture. */
std::vector<uint8_t>
encodeGolden(const GoldenFixture &f)
{
    return encodeTile(goldenTile(f), kGoldenLevels, goldenBudget(f));
}

/** Encode one fixture with every plane coded. */
std::vector<uint8_t>
encodeGoldenFullDepth(const GoldenFixture &f)
{
    return encodeTile(goldenTile(f), kGoldenLevels, SIZE_MAX);
}

/** Decode one fixture's sub-chunk. */
raster::Plane
decodeGolden(const GoldenFixture &f, const std::vector<uint8_t> &sub)
{
    return decodeTile(f.w, f.h, kGoldenLevels, {sub.data(), sub.size()});
}

std::string
fixtureName(const GoldenFixture &f)
{
    return std::string(f.content) + "/" + std::to_string(f.w) + "x" +
           std::to_string(f.h);
}

/** The whole stream a kGoldenCut row cuts. */
std::vector<uint8_t>
encodeCutFixture(const CutFixture &f)
{
    GoldenFixture source{"textured", 130, 70, 0, 0};
    EncodeParams ep;
    ep.tileSize = f.tileSize;
    return encode(goldenTile(source), ep).serialize();
}

/** CRC32 of `stream` cut to each of kCutPercents. */
std::vector<uint32_t>
cutCrcs(const std::vector<uint8_t> &stream)
{
    std::vector<uint32_t> crcs;
    for (int pct : kCutPercents)
        crcs.push_back(bytesCrc(truncateStream(
            stream, stream.size() * static_cast<size_t>(pct) / 100)));
    return crcs;
}

uint32_t
pixelCrc(const raster::Plane &p)
{
    return util::crc32(
        reinterpret_cast<const uint8_t *>(p.data().data()),
        p.data().size() * sizeof(float));
}

/**
 * Run `check` at every SIMD dispatch level and then at every
 * thread-pool width of the golden matrix, labelling failures.
 */
template <typename Check>
void
atEveryLevelAndWidth(Check &&check)
{
    util::simd::Level prev = util::simd::activeLevel();
    for (util::simd::Level l : kernels::availableLevels()) {
        util::simd::setActiveLevel(l);
        check(std::string("at ") + util::simd::levelName(l));
    }
    util::simd::setActiveLevel(prev);
    for (int threads : {1, 2, 7, util::ThreadPool::defaultThreadCount()}) {
        util::ThreadPool::setGlobalThreads(threads);
        check("with " + std::to_string(threads) + " threads");
    }
    util::ThreadPool::setGlobalThreads(
        util::ThreadPool::defaultThreadCount());
}

} // namespace

TEST(GoldenStream, V3ProgressiveStreamsMatchRecordedFormat)
{
    if (std::getenv("EARTHPLUS_PRINT_GOLDEN") != nullptr) {
        // Regeneration mode: print the rows to paste into kGoldenV3,
        // then the kDecodedV3 and kDecodedFullDepth entries.
        for (const GoldenFixture &f : kGoldenV3) {
            std::vector<uint8_t> sub = encodeGolden(f);
            std::printf("    {\"%s\", %d, %d, %zuu, 0x%08Xu},\n",
                        f.content, f.w, f.h, sub.size(), bytesCrc(sub));
        }
        for (const GoldenFixture &f : kGoldenV3)
            std::printf("    0x%08Xu,\n",
                        pixelCrc(decodeGolden(f, encodeGolden(f))));
        for (const GoldenFixture &f : kGoldenV3)
            std::printf("    0x%08Xu,\n",
                        pixelCrc(decodeGolden(f, encodeGoldenFullDepth(f))));
        for (const CutFixture &f : kGoldenCut) {
            std::vector<uint32_t> crcs = cutCrcs(encodeCutFixture(f));
            std::printf("    {%d, {0x%08Xu, 0x%08Xu, 0x%08Xu, 0x%08Xu}},\n",
                        f.tileSize, crcs[0], crcs[1], crcs[2], crcs[3]);
        }
    }
    // Streams are storage/wire format (the archive persists them,
    // truncateStream() cuts them), so the bytes are pinned across
    // every SIMD dispatch level AND
    // every thread-pool width: encoding must be deterministic no
    // matter how the pass loops are vectorized or scheduled.
    atEveryLevelAndWidth([](const std::string &where) {
        for (const GoldenFixture &f : kGoldenV3) {
            std::vector<uint8_t> sub = encodeGolden(f);
            EXPECT_EQ(sub.size(), f.bytes) << fixtureName(f) << " " << where;
            EXPECT_EQ(bytesCrc(sub), f.crc) << fixtureName(f) << " " << where;
        }
    });
}

TEST(GoldenStream, V3StreamsDecodeAsRecorded)
{
    // The decoded pixels are pinned at every SIMD level and pool width
    // too: the inverse transforms run through the dispatched kernels.
    std::vector<std::vector<uint8_t>> streams;
    for (const GoldenFixture &f : kGoldenV3)
        streams.push_back(encodeGolden(f));
    atEveryLevelAndWidth([&](const std::string &where) {
        for (size_t i = 0; i < std::size(kGoldenV3); ++i) {
            const GoldenFixture &f = kGoldenV3[i];
            raster::Plane dec = decodeGolden(f, streams[i]);
            EXPECT_EQ(pixelCrc(dec), kDecodedV3[i])
                << fixtureName(f) << " " << where;
        }
    });
}

TEST(GoldenStream, FullDepthStreamsDecodeAsRecorded)
{
    std::vector<std::vector<uint8_t>> streams;
    for (const GoldenFixture &f : kGoldenV3)
        streams.push_back(encodeGoldenFullDepth(f));
    atEveryLevelAndWidth([&](const std::string &where) {
        for (size_t i = 0; i < std::size(kGoldenV3); ++i) {
            const GoldenFixture &f = kGoldenV3[i];
            EXPECT_EQ(encodeGoldenFullDepth(f), streams[i])
                << fixtureName(f) << " " << where;
            raster::Plane dec = decodeGolden(f, streams[i]);
            EXPECT_EQ(pixelCrc(dec), kDecodedFullDepth[i])
                << fixtureName(f) << " full depth " << where;
        }
    });
}

TEST(GoldenStream, SizeMaxBudgetCodesEveryPlane)
{
    // A SIZE_MAX budget must not wrap when the chunk's length word is
    // added to it: it codes every plane, like any budget the tile never
    // reaches.
    for (const GoldenFixture &f : kGoldenV3) {
        raster::Plane tile = goldenTile(f);
        const size_t roomy = tile.data().size() * sizeof(float) * 8;
        EXPECT_EQ(encodeTile(tile, kGoldenLevels, SIZE_MAX),
                  encodeTile(tile, kGoldenLevels, roomy))
            << fixtureName(f);
    }
}

TEST(GoldenStream, TileFairCutsMatchRecordedBytes)
{
    // Cuts do no entropy work, so their bytes follow from the stream's
    // and are pinned the same way: at every SIMD level and pool width.
    // A decode at a budget keeps the segments the cut keeps, so its
    // pixels must be bit-equal to decoding the cut, at every cut
    // budget, at the floor, one byte below it (decoded as the floor)
    // and at SIZE_MAX.
    atEveryLevelAndWidth([](const std::string &where) {
        for (const CutFixture &f : kGoldenCut) {
            const std::string name = std::to_string(f.tileSize) + "-px";
            std::vector<uint8_t> stream = encodeCutFixture(f);
            const size_t floor = streamHeaderFloor(stream);
            ASSERT_LE(floor, stream.size() *
                                 static_cast<size_t>(kCutPercents[0]) / 100)
                << name;
            std::vector<uint32_t> crcs = cutCrcs(stream);
            for (size_t i = 0; i < crcs.size(); ++i)
                EXPECT_EQ(crcs[i], f.crc[i])
                    << name << " cut to " << kCutPercents[i] << "% "
                    << where;

            const EncodedImage whole = EncodedImage::deserialize(stream);
            std::vector<int> tiles(whole.tileCoded.size());
            std::iota(tiles.begin(), tiles.end(), 0);
            // (decode budget, the cut it must decode like)
            std::vector<std::pair<size_t, size_t>> budgets;
            for (int pct : kCutPercents) {
                const size_t b =
                    stream.size() * static_cast<size_t>(pct) / 100;
                budgets.emplace_back(b, b);
            }
            budgets.emplace_back(floor, floor);
            budgets.emplace_back(floor - 1, floor);
            budgets.emplace_back(SIZE_MAX, SIZE_MAX);
            for (const auto &[budget, cutAt] : budgets) {
                std::vector<raster::Plane> atBudget =
                    decodeTiles(whole, tiles, budget);
                std::vector<raster::Plane> ofCut = decodeTiles(
                    EncodedImage::deserialize(truncateStream(stream, cutAt)),
                    tiles);
                ASSERT_EQ(atBudget.size(), ofCut.size());
                for (size_t i = 0; i < tiles.size(); ++i)
                    EXPECT_EQ(pixelCrc(atBudget[i]), pixelCrc(ofCut[i]))
                        << name << " tile " << i << " at budget " << budget
                        << " " << where;
            }
        }
    });
}

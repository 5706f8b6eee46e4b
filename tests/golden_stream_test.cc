/**
 * @file
 * Golden-stream fixtures for the tile bitplane coder.
 *
 * The encoded byte stream is a wire/storage format: the ground archive
 * persists it and the downlink replays it, so any change to the coder
 * must either be byte-identical or come with an explicit format
 * migration. These tests pin all three stream versions over fixed
 * synthetic tiles across {CDF97, lossy 5/3, lossless} x odd/even tile
 * sizes x layer counts, at every SIMD dispatch level:
 *
 *  - v3 (EPC4) is what the encoder writes: kGoldenV3 pins its bytes,
 *    and its decode must be bit-exact with the v2 decode of the same
 *    tile.
 *  - v1 (EPC2) and v2 (EPC3) are decode-only. Their tile streams,
 *    recorded by the last encoder that wrote them, are checked in under
 *    tests/data/; the kGolden/kGoldenV2 CRC tables verify the loaded
 *    bytes and decoded-pixel CRCs pin the decoders.
 *
 * Fixture content is generated from Rng only (integer-based
 * xoshiro256**) with no libm calls, so the tiles — and therefore the
 * streams — are identical on every platform.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "codec/kernels.hh"
#include "codec/tile_coder.hh"
#include "ground/crc32.hh"
#include "raster/plane.hh"
#include "test_data.hh"
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
    const char *mode; ///< "cdf97", "lossy53" or "lossless".
    int layers;
    size_t bytes;     ///< Total encoded size across layers.
    uint32_t crc;     ///< CRC32 of the concatenated layer chunks.
};

// V1 (EPC2 unframed) fixtures: size and CRC32 of the concatenated
// layer streams in tests/data/golden_epc2_tiles.bin, recorded from the
// original per-pixel coder and reproduced by every encoder rewrite
// until v1 encoding was retired.
const GoldenFixture kGolden[] = {
    {"textured", 64, 64, "cdf97", 1, 1096u, 0x5D41161Du},
    {"textured", 64, 64, "cdf97", 3, 1106u, 0xEC9D49E4u},
    {"textured", 64, 64, "lossy53", 1, 1082u, 0xA8D3A845u},
    {"textured", 64, 64, "lossy53", 3, 1092u, 0x02B83B2Au},
    {"textured", 64, 64, "lossless", 1, 2896u, 0x560D2CD3u},
    {"textured", 64, 64, "lossless", 3, 2904u, 0xD463DB72u},
    {"textured", 61, 47, "cdf97", 1, 838u, 0x731D3A92u},
    {"textured", 61, 47, "cdf97", 3, 846u, 0x2F541D2Cu},
    {"textured", 61, 47, "lossy53", 1, 817u, 0x17CE6DCAu},
    {"textured", 61, 47, "lossy53", 3, 827u, 0x18E41A34u},
    {"textured", 61, 47, "lossless", 1, 2076u, 0x8317A863u},
    {"textured", 61, 47, "lossless", 3, 2085u, 0xE8C53783u},
    // 130 wide = 3 packed words per row with a 2-bit ragged tail:
    // pins the cross-word paths (bit-63 recruitment into the next
    // word, left/right carries, multi-word dilation).
    {"textured", 130, 70, "cdf97", 1, 2491u, 0xB306C5D3u},
    {"textured", 130, 70, "cdf97", 3, 2501u, 0x1B5414A0u},
    {"textured", 130, 70, "lossy53", 1, 2407u, 0xB9A97C26u},
    {"textured", 130, 70, "lossy53", 3, 2417u, 0x2945E1AAu},
    {"textured", 130, 70, "lossless", 1, 6417u, 0xAA6680E4u},
    {"textured", 130, 70, "lossless", 3, 6427u, 0xFF96B57Eu},
    {"sparse", 64, 64, "cdf97", 1, 510u, 0x29478451u},
    {"sparse", 64, 64, "cdf97", 3, 520u, 0xE9C7B881u},
    {"sparse", 64, 64, "lossy53", 1, 328u, 0xCCD65508u},
    {"sparse", 64, 64, "lossy53", 3, 338u, 0x0357A6DFu},
    {"sparse", 64, 64, "lossless", 1, 309u, 0x5FF21119u},
    {"sparse", 64, 64, "lossless", 3, 319u, 0x44F93C27u},
    {"sparse", 61, 47, "cdf97", 1, 446u, 0x6C319825u},
    {"sparse", 61, 47, "cdf97", 3, 456u, 0x5BD3F8BFu},
    {"sparse", 61, 47, "lossy53", 1, 308u, 0x3EA9A888u},
    {"sparse", 61, 47, "lossy53", 3, 318u, 0xA8D01B4Cu},
    {"sparse", 61, 47, "lossless", 1, 291u, 0xCC718CE5u},
    {"sparse", 61, 47, "lossless", 3, 301u, 0x29D50B32u},
    {"sparse", 130, 70, "cdf97", 1, 773u, 0xA54CDF5Fu},
    {"sparse", 130, 70, "cdf97", 3, 783u, 0x0B8A1030u},
    {"sparse", 130, 70, "lossy53", 1, 544u, 0xC3E32997u},
    {"sparse", 130, 70, "lossy53", 3, 554u, 0x1E05688Au},
    {"sparse", 130, 70, "lossless", 1, 508u, 0x4AFE4F7Fu},
    {"sparse", 130, 70, "lossless", 3, 517u, 0x31103FB0u},
};

/**
 * V2 (EPC3 chunked) fixtures: the same tiles coded with chunkRows =
 * 32, so every fixture splits into at least two framed entropy chunks
 * (64x64 -> 2, 61x47 -> 2, 130x70 -> 3); their streams are in
 * tests/data/golden_epc3_tiles.bin. Recorded when the chunked format
 * was introduced — the first worked example in docs/ARCHITECTURE.md.
 */
constexpr int kGoldenV2ChunkRows = 32;
const GoldenFixture kGoldenV2[] = {
    {"textured", 64, 64, "cdf97", 1, 1158u, 0x12C8C7ADu},
    {"textured", 64, 64, "cdf97", 3, 1192u, 0xB27AB9A4u},
    {"textured", 64, 64, "lossy53", 1, 1239u, 0x7EABC228u},
    {"textured", 64, 64, "lossy53", 3, 1273u, 0x294FB827u},
    {"textured", 64, 64, "lossless", 1, 2916u, 0x7D5F8D71u},
    {"textured", 64, 64, "lossless", 3, 2950u, 0x359CA36Au},
    {"textured", 61, 47, "cdf97", 3, 833u, 0xAAFDFBD9u},
    {"textured", 61, 47, "lossless", 3, 2133u, 0x5CDCDE26u},
    {"textured", 130, 70, "cdf97", 3, 2779u, 0x019F23F5u},
    {"textured", 130, 70, "lossy53", 3, 2880u, 0xB2813062u},
    {"textured", 130, 70, "lossless", 3, 6520u, 0x9B55CBE3u},
    {"sparse", 64, 64, "cdf97", 1, 518u, 0x960A5931u},
    {"sparse", 64, 64, "lossy53", 3, 387u, 0xD0029408u},
    {"sparse", 64, 64, "lossless", 3, 364u, 0x6A21B424u},
    {"sparse", 61, 47, "cdf97", 3, 498u, 0x379CE68Eu},
    {"sparse", 61, 47, "lossless", 1, 311u, 0xD1F06D4Cu},
    {"sparse", 130, 70, "lossy53", 3, 620u, 0xFC5E6480u},
    {"sparse", 130, 70, "lossless", 3, 577u, 0x3AD72528u},
};

/**
 * V3 (EPC4 progressive) fixtures: the kGoldenV2 tiles, in the same
 * order, coded with chunkRows = 32 and progressive segment framing,
 * pinning the segment words, per-segment coder flushes and the
 * encoder's stop on real payload bytes. Recorded deliberately when the
 * progressive format was introduced (the EPC4 migration) and again
 * when rate control moved off the shadow coder, which moved only the
 * lossy layers = 3 rows — see the second and fourth worked examples in
 * docs/ARCHITECTURE.md. Regenerate by running this binary with
 * EARTHPLUS_PRINT_GOLDEN=1 and pasting the printed rows.
 */
const GoldenFixture kGoldenV3[] = {
    {"textured", 64, 64, "cdf97", 1, 1241u, 0xDB3052E5u},
    {"textured", 64, 64, "cdf97", 3, 1273u, 0x3604E32Eu},
    {"textured", 64, 64, "lossy53", 1, 1295u, 0x5D52D9D6u},
    {"textured", 64, 64, "lossy53", 3, 1099u, 0x6AB8482Au},
    {"textured", 64, 64, "lossless", 1, 3012u, 0x8A0F402Du},
    {"textured", 64, 64, "lossless", 3, 3028u, 0xE1C3B152u},
    {"textured", 61, 47, "cdf97", 3, 921u, 0x85BA07D4u},
    {"textured", 61, 47, "lossless", 3, 2220u, 0xB0CD3AB3u},
    {"textured", 130, 70, "cdf97", 3, 2634u, 0xFF2B1337u},
    {"textured", 130, 70, "lossy53", 3, 2422u, 0x7C740DBEu},
    {"textured", 130, 70, "lossless", 3, 6642u, 0x11DD4BCEu},
    {"sparse", 64, 64, "cdf97", 1, 632u, 0xE499A07Au},
    {"sparse", 64, 64, "lossy53", 3, 472u, 0x335B2169u},
    {"sparse", 64, 64, "lossless", 3, 425u, 0xF4D7574Au},
    {"sparse", 61, 47, "cdf97", 3, 611u, 0xEDEFC790u},
    {"sparse", 61, 47, "lossless", 1, 400u, 0x7A7DFCD0u},
    {"sparse", 130, 70, "lossy53", 3, 752u, 0x768DC1DEu},
    {"sparse", 130, 70, "lossless", 3, 669u, 0xAE84D12Au},
};

// CRC32 of the decoded float pixels of every kGolden / kGoldenV2
// fixture, recorded with its bytes: decoding is all that is left of v1
// and v2, so decoding is what these pin.
const uint32_t kDecodedV1[] = {
    0x2353B43Eu, 0x2353B43Eu, 0x8216FDC9u, 0x8216FDC9u, 0x58A1F0D2u,
    0x58A1F0D2u, 0x7B5912B4u, 0x7B5912B4u, 0x2DC909E3u, 0x2DC909E3u,
    0x50319440u, 0x50319440u, 0x227BE1C5u, 0x227BE1C5u, 0x03CA8FCEu,
    0x03CA8FCEu, 0xBBA68888u, 0xBBA68888u, 0x8227BB1Au, 0x8227BB1Au,
    0x18EF4AF9u, 0x18EF4AF9u, 0x217D5E30u, 0x217D5E30u, 0x08377752u,
    0x08377752u, 0x65F99890u, 0x65F99890u, 0xE388AF9Fu, 0xE388AF9Fu,
    0xE10E9CA9u, 0xE10E9CA9u, 0x6F53A3E2u, 0x6F53A3E2u, 0x8F01FC25u,
    0x8F01FC25u,
};
const uint32_t kDecodedV2[] = {
    0x401B2936u, 0x401B2936u, 0xE9E6023Du, 0xE9E6023Du, 0x58A1F0D2u,
    0x58A1F0D2u, 0x2AAA151Fu, 0x50319440u, 0x12709A22u, 0xCAF46159u,
    0xBBA68888u, 0x8227BB1Au, 0x18EF4AF9u, 0x217D5E30u, 0x08377752u,
    0xE388AF9Fu, 0x6F53A3E2u, 0x8F01FC25u,
};
static_assert(std::size(kDecodedV1) == std::size(kGolden));
static_assert(std::size(kDecodedV2) == std::size(kGoldenV2));

/** The fixture's exact tile content and coder configuration. */
void
buildGolden(const GoldenFixture &f, raster::Plane &tile,
            TileCoderParams &params, size_t &budget)
{
    params = TileCoderParams();
    if (std::string(f.mode) == "lossy53") {
        params.wavelet = Wavelet::LeGall53;
    } else if (std::string(f.mode) == "lossless") {
        params.wavelet = Wavelet::LeGall53;
        params.lossless = true;
    }
    uint64_t seed = 7000 + static_cast<uint64_t>(f.w) * 13 +
                    static_cast<uint64_t>(f.h) * 7;
    tile = std::string(f.content) == "textured"
        ? texturedTile(f.w, f.h, seed)
        : sparseDeltaTile(f.w, f.h, seed);
    if (params.lossless)
        for (auto &v : tile.data())
            v = std::round(v * 255.0f) / 255.0f;
    // 2 bpp for the lossy modes; lossless gets a cap it never hits so
    // every bitplane is coded and the fixture truly round-trips.
    budget = params.lossless
        ? static_cast<size_t>(f.w) * static_cast<size_t>(f.h) * 4
        : static_cast<size_t>(f.w) * static_cast<size_t>(f.h) * 2 / 8;
}

/** Total bytes and CRC32 of the concatenated layer streams. */
std::pair<size_t, uint32_t>
layersCrc(const std::vector<std::vector<uint8_t>> &layers)
{
    uint32_t crc = 0;
    size_t total = 0;
    bool first = true;
    for (const auto &c : layers) {
        crc = first ? ground::crc32(c.data(), c.size())
                    : ground::crc32Update(crc, c.data(), c.size());
        first = false;
        total += c.size();
    }
    return {total, crc};
}

/** Encode one fixture as EPC4 with kGoldenV2ChunkRows-row chunks. */
std::vector<std::vector<uint8_t>>
encodeGolden(const GoldenFixture &f)
{
    raster::Plane tile(1, 1);
    TileCoderParams params;
    size_t budget = 0;
    buildGolden(f, tile, params, budget);
    params.chunkRows = kGoldenV2ChunkRows;
    return encodeTileLayers(tile, params, f.layers, budget);
}

std::string
fixtureName(const GoldenFixture &f)
{
    return std::string(f.content) + "/" + std::to_string(f.w) + "x" +
           std::to_string(f.h) + "/" + f.mode + "/layers" +
           std::to_string(f.layers);
}

/**
 * Split a fixture file's records into per-fixture layer streams,
 * checking each fixture's bytes against its recorded size and CRC.
 */
std::vector<std::vector<std::vector<uint8_t>>>
loadGoldenTiles(const char *file, const GoldenFixture *fixtures,
                size_t count)
{
    std::vector<std::vector<uint8_t>> records = testdata::loadRecords(file);
    std::vector<std::vector<std::vector<uint8_t>>> tiles;
    size_t next = 0;
    for (size_t i = 0; i < count; ++i) {
        const GoldenFixture &f = fixtures[i];
        std::vector<std::vector<uint8_t>> layers;
        for (int l = 0; l < f.layers && next < records.size(); ++l)
            layers.push_back(records[next++]);
        auto [bytes, crc] = layersCrc(layers);
        EXPECT_EQ(bytes, f.bytes) << file << ": " << fixtureName(f);
        EXPECT_EQ(crc, f.crc) << file << ": " << fixtureName(f);
        tiles.push_back(std::move(layers));
    }
    EXPECT_EQ(next, records.size()) << file << " holds extra records";
    return tiles;
}

/** Decode one fixture's layer streams as `version`. */
raster::Plane
decodeGolden(const GoldenFixture &f,
             const std::vector<std::vector<uint8_t>> &layers,
             int chunkRows, StreamVersion version)
{
    raster::Plane tile(1, 1);
    TileCoderParams params;
    size_t budget = 0;
    buildGolden(f, tile, params, budget);
    params.chunkRows = chunkRows;
    std::vector<ChunkSpan> spans;
    for (const auto &c : layers)
        spans.push_back({c.data(), c.size()});
    return decodeTileLayers(f.w, f.h, params, spans, version);
}

uint32_t
pixelCrc(const raster::Plane &p)
{
    return ground::crc32(
        reinterpret_cast<const uint8_t *>(p.data().data()),
        p.data().size() * sizeof(float));
}

/** Expect `dec` to reproduce the fixture tile exactly. */
void
expectLossless(const GoldenFixture &f, const raster::Plane &dec)
{
    raster::Plane tile(1, 1);
    TileCoderParams params;
    size_t budget = 0;
    buildGolden(f, tile, params, budget);
    bool exact = dec.data().size() == tile.data().size();
    for (size_t i = 0; exact && i < tile.data().size(); ++i)
        exact = std::fabs(tile.data()[i] - dec.data()[i]) < 1e-6f;
    EXPECT_TRUE(exact) << fixtureName(f);
}

/**
 * Shared body of the v1/v2 pins: the checked-in streams match their
 * CRC table and decode to the recorded pixels at every SIMD level
 * (exactly to the source tile, in lossless mode).
 */
void
expectDecodesAsRecorded(const char *file, const GoldenFixture *fixtures,
                        const uint32_t *decodedCrcs, size_t count,
                        int chunkRows, StreamVersion version)
{
    auto tiles = loadGoldenTiles(file, fixtures, count);
    ASSERT_EQ(tiles.size(), count);
    util::simd::Level prev = util::simd::activeLevel();
    for (util::simd::Level l : kernels::availableLevels()) {
        util::simd::setActiveLevel(l);
        for (size_t i = 0; i < count; ++i) {
            const GoldenFixture &f = fixtures[i];
            raster::Plane dec = decodeGolden(f, tiles[i], chunkRows,
                                             version);
            EXPECT_EQ(pixelCrc(dec), decodedCrcs[i])
                << fixtureName(f) << " at " << util::simd::levelName(l);
            if (std::string(f.mode) == "lossless")
                expectLossless(f, dec);
        }
    }
    util::simd::setActiveLevel(prev);
}

} // namespace

TEST(GoldenStream, V1StreamsDecodeAsRecordedAtEveryLevel)
{
    expectDecodesAsRecorded("golden_epc2_tiles.bin", kGolden, kDecodedV1,
                            std::size(kGolden), 0, StreamVersion::V1);
}

TEST(GoldenStream, V2StreamsDecodeAsRecordedAtEveryLevel)
{
    expectDecodesAsRecorded("golden_epc3_tiles.bin", kGoldenV2,
                            kDecodedV2, std::size(kGoldenV2),
                            kGoldenV2ChunkRows, StreamVersion::V2);
}

TEST(GoldenStream, V3ProgressiveStreamsMatchRecordedFormat)
{
    if (std::getenv("EARTHPLUS_PRINT_GOLDEN") != nullptr) {
        // Regeneration mode: print table rows to paste into kGoldenV3.
        for (const GoldenFixture &f : kGoldenV3) {
            auto [bytes, crc] = layersCrc(encodeGolden(f));
            std::printf("    {\"%s\", %d, %d, \"%s\", %d, %zuu, "
                        "0x%08Xu},\n",
                        f.content, f.w, f.h, f.mode, f.layers, bytes,
                        crc);
        }
    }
    // Progressive streams are storage/wire format too (the archive
    // persists them, truncateStream() cuts them at recorded offsets),
    // so the bytes are pinned across every SIMD dispatch level AND
    // every thread-pool width: encoding must be deterministic no
    // matter how the pass loops are vectorized or scheduled.
    util::simd::Level prev = util::simd::activeLevel();
    for (util::simd::Level l : kernels::availableLevels()) {
        util::simd::setActiveLevel(l);
        for (const GoldenFixture &f : kGoldenV3) {
            auto [bytes, crc] = layersCrc(encodeGolden(f));
            EXPECT_EQ(bytes, f.bytes)
                << fixtureName(f) << " at " << util::simd::levelName(l);
            EXPECT_EQ(crc, f.crc)
                << fixtureName(f) << " at " << util::simd::levelName(l);
        }
    }
    util::simd::setActiveLevel(prev);
    for (int threads : {1, 2, 7, util::ThreadPool::defaultThreadCount()}) {
        util::ThreadPool::setGlobalThreads(threads);
        for (const GoldenFixture &f : kGoldenV3) {
            auto [bytes, crc] = layersCrc(encodeGolden(f));
            EXPECT_EQ(bytes, f.bytes)
                << fixtureName(f) << " with " << threads << " threads";
            EXPECT_EQ(crc, f.crc)
                << fixtureName(f) << " with " << threads << " threads";
        }
    }
    util::ThreadPool::setGlobalThreads(
        util::ThreadPool::defaultThreadCount());
}

TEST(GoldenStream, V3FixturesDecodeBitExactlyWithCheckedInV2)
{
    // Lossless coding is never budget-bound, so EPC4 codes every plane
    // EPC3 did and reconstructs exactly the pixels its EPC3 twin does.
    // Lossy EPC4 stops on its own payload bytes, so its schedule (and
    // its pixels) differ from EPC3's by design.
    ASSERT_EQ(std::size(kGoldenV3), std::size(kGoldenV2));
    auto v2 = loadGoldenTiles("golden_epc3_tiles.bin", kGoldenV2,
                              std::size(kGoldenV2));
    ASSERT_EQ(v2.size(), std::size(kGoldenV2));
    int compared = 0;
    for (size_t i = 0; i < std::size(kGoldenV3); ++i) {
        const GoldenFixture &f = kGoldenV3[i];
        ASSERT_EQ(fixtureName(f), fixtureName(kGoldenV2[i]));
        if (std::string(f.mode) != "lossless")
            continue;
        raster::Plane fromV3 = decodeGolden(f, encodeGolden(f),
                                            kGoldenV2ChunkRows,
                                            StreamVersion::V3);
        raster::Plane fromV2 = decodeGolden(f, v2[i], kGoldenV2ChunkRows,
                                            StreamVersion::V2);
        EXPECT_EQ(pixelCrc(fromV3), kDecodedV2[i]) << fixtureName(f);
        EXPECT_EQ(fromV3.data(), fromV2.data()) << fixtureName(f);
        expectLossless(f, fromV3);
        ++compared;
    }
    EXPECT_EQ(compared, 7);
}

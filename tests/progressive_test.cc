/**
 * @file
 * Property tests for post-encode rate control on the EPC5 stream
 * format: the tile-fair cutter (codec::truncateStream) over a ladder
 * of budgets — under budget, nested, complete, monotone in PSNR and
 * fair to every row band — the encoder's real-byte rate control and a
 * typed error for every stream prefix.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "codec/codec.hh"
#include "codec/tile_coder.hh"
#include "raster/metrics.hh"
#include "util/bytes.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

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

/** Natural-image-like blocks + noise, every subband busy. */
raster::Plane
denseTile(int w, int h, uint64_t seed)
{
    raster::Plane p(w, h);
    Rng rng(seed);
    const int block = 8;
    int bw = (w + block - 1) / block;
    int bh = (h + block - 1) / block;
    std::vector<float> blocks(static_cast<size_t>(bw) * bh);
    for (auto &v : blocks)
        v = static_cast<float>(rng.uniform());
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
            float base = blocks[static_cast<size_t>(y / block) * bw +
                                static_cast<size_t>(x / block)];
            float grad = static_cast<float>(x + 2 * y) /
                         static_cast<float>(w + 2 * h);
            float noise = static_cast<float>(rng.uniform()) * 0.1f;
            p.at(x, y) = 0.25f + 0.4f * base + 0.25f * grad + noise;
        }
    return p;
}

/** Hard content: step edges + texture, stresses many bitplanes. */
raster::Plane
edgyImage(int w, int h, uint64_t seed)
{
    raster::Plane p(w, h);
    Rng rng(seed);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
            float v = ((x / 17 + y / 23) & 1) ? 0.85f : 0.15f;
            v += 0.08f * std::sin(x * 0.9f) * std::sin(y * 0.7f);
            v += static_cast<float>(rng.normal(0.0, 0.02));
            p.at(x, y) = v;
        }
    p.clampTo(0.0f, 1.0f);
    return p;
}

/** Decode a serialized stream that must parse. */
raster::Plane
decodeBytes(const std::vector<uint8_t> &bytes)
{
    return decode(EncodedImage::deserialize(bytes));
}

/**
 * The cutter's contract over a ladder of 101 budgets from the floor to
 * the stream length: every cut fits its budget, parses as a complete
 * stream that re-serializes to the same bytes and keeps the stream's
 * floor, nests (cutting a cut gives the bytes of cutting the whole
 * stream to the smaller budget), and decodes to a PSNR that never
 * falls as the budget grows. The top rung is the stream itself.
 */
void
checkLadder(const raster::Plane &img, const std::vector<uint8_t> &stream)
{
    constexpr size_t kRungs = 100;
    const size_t floor = streamHeaderFloor(stream);
    const size_t len = stream.size();
    ASSERT_LT(floor, len);
    std::vector<size_t> budgets;
    std::vector<std::vector<uint8_t>> cuts;
    double lastPsnr = 0.0;
    for (size_t i = 0; i <= kRungs; ++i) {
        budgets.push_back(floor + (len - floor) * i / kRungs);
        cuts.push_back(truncateStream(stream, budgets[i]));
        const std::vector<uint8_t> &cut = cuts[i];
        SCOPED_TRACE(testing::Message()
                     << "budget " << budgets[i] << " of " << len);
        ASSERT_LE(cut.size(), budgets[i]);
        EncodedImage e;
        ASSERT_EQ(EncodedImage::tryDeserialize(cut.data(), cut.size(), e),
                  StreamError::None);
        EXPECT_EQ(e.serialize(), cut);
        EXPECT_EQ(streamHeaderFloor(cut), floor);
        for (size_t j : {size_t(0), i / 2, i - (i > 0), i})
            EXPECT_EQ(truncateStream(cut, budgets[j]), cuts[j])
                << "cut again to " << budgets[j];
        const double q = raster::psnr(img, decode(e));
        EXPECT_GE(q, lastPsnr);
        lastPsnr = q;
    }
    EXPECT_EQ(cuts.back(), stream);
}

} // namespace

struct ProgressiveCase
{
    double bitsPerPixel;
    int tileSize;
    bool edgy;
};

class Progressive : public ::testing::TestWithParam<ProgressiveCase>
{
};

/**
 * The heart of the format contract, over the matrix: the ladder
 * properties of checkLadder(), and budgets past the length return the
 * stream unchanged. The 8 bpp rows code low planes too, so the ladder
 * also cuts into them.
 */
TEST_P(Progressive, CutLadderFitsNestsAndImproves)
{
    const ProgressiveCase c = GetParam();
    raster::Plane img = c.edgy ? edgyImage(150, 110, 91)
                               : testImage(150, 110, 90);

    EncodeParams p;
    p.tileSize = c.tileSize;
    p.bitsPerPixel = c.bitsPerPixel;

    std::vector<uint8_t> v4 = encode(img, p).serialize();
    checkLadder(img, v4);
    EXPECT_EQ(truncateStream(v4, v4.size() * 2), v4);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, Progressive,
    ::testing::Values(ProgressiveCase{1.5, 96, false},
                      ProgressiveCase{1.5, 64, false},
                      ProgressiveCase{1.5, 96, true},
                      ProgressiveCase{1.5, 48, false},
                      ProgressiveCase{8.0, 96, false},
                      ProgressiveCase{8.0, 64, true}));

/**
 * The 512x512 probe (64-px tiles, 2 bpp) on a dense textured plane and
 * a smooth one. Cut to 10/25/50/75% of the stream, no 64-row band
 * falls more than 1.5 dB below the whole image, and the whole image
 * is at most 0.2 dB below what a 4-layer stream of the same plane gave
 * when cut to the same budget at its recorded truncation points
 * (measured before multi-layer encoding was retired): one stream and
 * the cutter do what the layers did. The ladder contract holds too.
 */
TEST(Progressive, ProbeCutsServeEveryBandAndMatchLayeredRd)
{
    struct Probe
    {
        const char *name;
        raster::Plane img;
        double layeredPsnr[4];
    };
    const Probe probes[] = {
        {"dense", denseTile(512, 512, 500), {15.65, 20.55, 30.08, 32.41}},
        {"smooth", testImage(512, 512, 90), {17.71, 27.97, 41.25, 43.27}},
    };
    const int percents[] = {10, 25, 50, 75};
    for (const Probe &probe : probes) {
        SCOPED_TRACE(probe.name);
        EncodeParams p;
        p.tileSize = 64;
        p.bitsPerPixel = 2.0;
        std::vector<uint8_t> stream = encode(probe.img, p).serialize();
        checkLadder(probe.img, stream);
        for (size_t k = 0; k < std::size(percents); ++k) {
            SCOPED_TRACE(testing::Message() << percents[k] << "%");
            raster::Plane dec = decodeBytes(truncateStream(
                stream, stream.size() * static_cast<size_t>(percents[k]) /
                            100));
            const double whole = raster::psnr(probe.img, dec);
            EXPECT_GE(whole, probe.layeredPsnr[k] - 0.2);
            EXPECT_LE(whole - raster::worstBandPsnr(probe.img, dec, 64),
                      1.5);
        }
    }
}

/**
 * The encoder's rate control counts the bytes it actually writes: a
 * tile starts a segment only while its chunk payload — the header byte
 * and every earlier segment's framing word and flushed body — is still
 * under the tile budget, so everything before the last segment fits
 * the budget.
 */
TEST(Progressive, EncoderStopsOnRealPayloadBytes)
{
    const int kTile = 64;
    int tilesChecked = 0;
    int budgetBound = 0;
    for (bool edgy : {false, true}) {
        raster::Plane img = edgy ? edgyImage(kTile, kTile, 93)
                                 : testImage(kTile, kTile, 92);
        for (double bpp = 0.25; bpp <= 2.0; bpp += 0.25) {
            SCOPED_TRACE(testing::Message()
                         << "edgy=" << edgy << " bpp=" << bpp);
            const size_t budget =
                static_cast<size_t>(bpp * kTile * kTile / 8.0);
            // The sub-chunk is the chunk payload behind its u32 length.
            const std::vector<uint8_t> sub =
                encodeTile(img, EncodeParams().dwtLevels, budget);
            ASSERT_GT(sub.size(), 4u);
            ASSERT_EQ(util::readPodAt<uint32_t>(sub.data(), 0),
                      sub.size() - 4);
            const uint8_t *payload = sub.data() + 4;
            const size_t payloadSize = sub.size() - 4;
            // Segments are `u32 segWord | body`, with
            // segWord = body length << 2 | (passes - 1).
            size_t lastSegment = 1;
            size_t pos = 1;
            while (pos < payloadSize) {
                lastSegment = pos;
                pos += sizeof(uint32_t) +
                       (util::readPodAt<uint32_t>(payload, pos) >> 2);
            }
            ASSERT_EQ(pos, payloadSize);
            EXPECT_LT(lastSegment, budget);
            ++tilesChecked;
            if (payloadSize >= budget)
                ++budgetBound;
        }
    }
    EXPECT_EQ(tilesChecked, 2 * 8);
    // The budget really binds: most tiles run past it.
    EXPECT_GT(budgetBound, tilesChecked / 2);
}

/**
 * Fuzz leg: every stream is complete, so any prefix of one must come
 * back as a typed Truncated error — never UB, never a crash, never
 * acceptance. Runs under ASan/TSan in CI.
 */
TEST(Progressive, PrefixesAreTypedTruncated)
{
    raster::Plane img = testImage(170, 130, 8);
    EncodeParams p;
    p.tileSize = 96;
    p.bitsPerPixel = 1.2;
    std::vector<uint8_t> v4 = encode(img, p).serialize();

    // ci/check.sh chaos sweeps EARTHPLUS_CHAOS_SEED so each seed
    // fuzzes a different set of offsets.
    const char *env = std::getenv("EARTHPLUS_CHAOS_SEED");
    Rng rng(4242 + (env ? std::strtoull(env, nullptr, 10) : 0ULL));
    for (int i = 0; i < 1000; ++i) {
        size_t cut = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(v4.size()) - 1));
        EncodedImage e;
        std::string msg;
        EXPECT_EQ(EncodedImage::tryDeserialize(v4.data(), cut, e, &msg),
                  StreamError::Truncated)
            << "cut at " << cut << ": " << msg;
        EXPECT_FALSE(msg.empty());
    }
}

/** Cut streams decode tiles independently, same as full ones. */
TEST(Progressive, CutStreamsServeTileQueries)
{
    raster::Plane img = testImage(200, 200, 9);
    EncodeParams p;
    p.tileSize = 96;
    p.bitsPerPixel = 1.5;
    std::vector<uint8_t> v4 = encode(img, p).serialize();

    std::vector<uint8_t> half = truncateStream(v4, v4.size() / 2);
    EncodedImage e;
    ASSERT_EQ(EncodedImage::tryDeserialize(half.data(), half.size(), e),
              StreamError::None);
    raster::Plane whole = decode(e);
    std::vector<raster::Plane> tiles = decodeTiles(e, {0, 2});
    ASSERT_EQ(tiles.size(), 2u);
    // Tile decode of the cut stream matches the corresponding region
    // of the whole-plane decode of the same cut stream.
    EXPECT_EQ(tiles[0].at(10, 10), whole.at(10, 10));
    EXPECT_EQ(tiles[1].at(5, 5), whole.at(2 * 96 + 5, 5));
}

/** A budget below the cutter's floor is a caller error. */
TEST(ProgressiveDeath, BudgetsBelowTheFloorAreFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    raster::Plane img = testImage(96, 96, 10);
    EncodeParams p;
    p.tileSize = 96;
    std::vector<uint8_t> v4 = encode(img, p).serialize();
    EXPECT_EXIT(truncateStream(v4, streamHeaderFloor(v4) - 1),
                ::testing::KilledBySignal(SIGABRT), "floor");
}

/**
 * Concurrency: cutting and decoding are pure functions over const
 * bytes — many threads cutting and decoding the same stream at
 * different budgets must race nowhere (TSan suite runs this).
 */
TEST(Progressive, ConcurrentTruncateAndDecode)
{
    raster::Plane img = testImage(200, 140, 12);
    EncodeParams p;
    p.tileSize = 96;
    p.bitsPerPixel = 1.0;
    const std::vector<uint8_t> v4 = encode(img, p).serialize();
    const size_t floor = streamHeaderFloor(v4);

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            Rng rng(1000 + t);
            for (int i = 0; i < 8; ++i) {
                size_t budget = static_cast<size_t>(rng.uniformInt(
                    static_cast<int64_t>(floor),
                    static_cast<int64_t>(v4.size())));
                std::vector<uint8_t> cut = truncateStream(v4, budget);
                ASSERT_LE(cut.size(), budget);
                EncodedImage e;
                ASSERT_EQ(EncodedImage::tryDeserialize(cut.data(),
                                                       cut.size(), e),
                          StreamError::None);
                raster::Plane dec = decode(e);
                ASSERT_EQ(dec.width(), img.width());
            }
        });
    for (auto &th : threads)
        th.join();
}

/**
 * @file
 * Seeded mutation fuzz of the stream container walker behind
 * codec::EncodedImage::tryDeserialize() and of the decoder behind it.
 *
 * Inputs are fresh EPC5 encodes covering low and high (8 bpp) budgets,
 * several tile sizes, and an ROI subset. Each mutant
 * rewrites one of the container's length words — the payload chunkLen,
 * a tile subLen, an entropy-chunk ecLen or a segWord — and/or flips
 * bytes, and may be cut short or have 1-8 bytes appended. Every mutant
 * must come back as a parsed image of exactly its own length or a
 * typed StreamError; every parsed image must decode, whole
 * and tile by tile, and be cut by codec::truncateStream() at three
 * budgets into streams that parse and decode, without dying, to the
 * pixels codec::decodeTiles() decodes at those budgets; the asan
 * and chaos
 * legs of ci/check.sh run this suite under ASan+UBSan, so an
 * out-of-bounds access or undefined arithmetic fails it.
 * EARTHPLUS_CHAOS_SEED selects the mutation stream. Headers and
 * sub-chunks off the one-chunk-per-tile grid are typed Corrupt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "codec/codec.hh"
#include "raster/tile.hh"
#include "util/bytes.hh"
#include "util/rng.hh"

using namespace earthplus;
using namespace earthplus::codec;

namespace {

/** Fixed EPC5 header bytes, ahead of the coded-tile bitmap. */
constexpr size_t kHeaderBytes = 44;

/** Offsets of every length word in a well-formed stream, by kind. */
struct LengthWords
{
    std::vector<size_t> payload, sub, ec, seg;
};

/**
 * An independent walk of the grammar in docs/ARCHITECTURE.md over the
 * complete stream `bytes` whose header parsed into `e`: true when
 * every length word frames a body inside its enclosing structure and
 * every tile sub-chunk is exactly one entropy chunk.
 * Records the offset of every length word it reads in `words`. The
 * fuzz must not trust the code under test to tell it where the
 * structure is, nor whether an accepted stream is framed consistently.
 */
bool
walkGrammar(const std::vector<uint8_t> &bytes, const EncodedImage &e,
            LengthWords &words)
{
    size_t nCoded = 0;
    for (uint8_t f : e.tileCoded)
        nCoded += f;
    size_t pos = kHeaderBytes + (e.tileCoded.size() + 7) / 8;
    // Read the length word at `pos` of a structure ending at `end`;
    // the end of the body it frames, or 0 when either does not fit.
    auto body = [&](std::vector<size_t> &kind, size_t end, int shift) {
        kind.push_back(pos);
        if (end - pos < 4)
            return size_t(0);
        size_t n = util::readPodAt<uint32_t>(bytes.data(), pos) >> shift;
        pos += 4;
        return n <= end - pos ? pos + n : 0;
    };
    const size_t payloadEnd = body(words.payload, bytes.size(), 0);
    if (payloadEnd == 0)
        return false;
    for (size_t t = 0; t < nCoded; ++t) {
        const size_t subEnd = body(words.sub, payloadEnd, 0);
        if (subEnd == 0)
            return false;
        const size_t ecEnd = body(words.ec, subEnd, 0);
        if (ecEnd != subEnd)
            return false;
        if (pos < ecEnd)
            ++pos; // raw maxPlane byte
        while (pos < ecEnd) {
            const size_t segEnd = body(words.seg, ecEnd, 2);
            if (segEnd == 0)
                return false;
            pos = segEnd;
        }
    }
    return pos == payloadEnd;
}

/** Decode `e` whole and its first and last tiles on their own. */
void
expectDecodes(const EncodedImage &e)
{
    raster::Plane whole = decode(e);
    EXPECT_EQ(whole.width(), e.width);
    EXPECT_EQ(whole.height(), e.height);
    const int last = static_cast<int>(e.tileCoded.size()) - 1;
    std::vector<raster::Plane> tiles = decodeTiles(e, {0, last});
    ASSERT_EQ(tiles.size(), 2u);
    raster::TileGrid grid(e.width, e.height, e.tileSize);
    EXPECT_EQ(tiles[1].width(), grid.rect(last).width);
    EXPECT_EQ(tiles[1].height(), grid.rect(last).height);
}

/** A hostile value for the length word `old` at offset `at`. */
uint32_t
hostileLength(uint32_t old, size_t at, size_t len, Rng &rng)
{
    const uint32_t rest = static_cast<uint32_t>(len - at - 4);
    switch (rng.uniformInt(0, 9)) {
    case 0: return 0;
    case 1: return old + 1;
    case 2: return old - 1;
    case 3: return old + 4;
    case 4: return old - 4;
    case 5: return rest;
    case 6: return rest + 1 + static_cast<uint32_t>(rng.uniformInt(0, 7));
    case 7: return 0xFFFFFFFFu;
    case 8: return old ^ static_cast<uint32_t>(rng.uniformInt(1, 3));
    default: return static_cast<uint32_t>(rng.uniformInt(0, 0xFFFFFFFFll));
    }
}

/**
 * One mutant of `base`: length-word rewrite, byte flips and/or a cut
 * or 1-8 appended bytes.
 */
std::vector<uint8_t>
mutate(const std::vector<uint8_t> &base, const LengthWords &words,
       Rng &rng)
{
    std::vector<uint8_t> m = base;
    const std::vector<size_t> *kinds[] = {&words.payload, &words.sub,
                                          &words.ec, &words.seg};
    bool rewrite = rng.uniformInt(0, 1) == 0;
    const std::vector<size_t> &kind = *kinds[rng.uniformInt(0, 3)];
    if (rewrite && !kind.empty()) {
        size_t at = kind[static_cast<size_t>(rng.uniformInt(
            0, static_cast<int64_t>(kind.size()) - 1))];
        uint32_t v = hostileLength(
            util::readPodAt<uint32_t>(m.data(), at), at, m.size(), rng);
        std::memcpy(m.data() + at, &v, 4);
    } else {
        for (int64_t flips = rng.uniformInt(1, 4); flips > 0; --flips) {
            size_t at = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(m.size()) - 1));
            m[at] ^= static_cast<uint8_t>(rng.uniformInt(1, 255));
        }
    }
    if (rng.uniformInt(0, 3) == 0)
        m.resize(static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(m.size()))));
    else if (rng.uniformInt(0, 3) == 0)
        for (int64_t extra = rng.uniformInt(1, 8); extra > 0; --extra)
            m.push_back(static_cast<uint8_t>(rng.uniformInt(0, 255)));
    return m;
}

/**
 * Fuzz `inputs`: every mutant parses or fails typed, accepted streams
 * are internally consistent, and every accepted stream decodes — the
 * whole plane, and its first and last tiles on their own — and cuts,
 * at the cutter's floor, halfway up and one byte short, into streams
 * that parse and decode the same way, and like the whole stream
 * decoded at each budget. Both outcomes must occur.
 */
void
fuzzStreams(const std::vector<std::vector<uint8_t>> &inputs,
            uint64_t salt, int mutantsPerInput)
{
    const char *env = std::getenv("EARTHPLUS_CHAOS_SEED");
    Rng rng(salt * 7919 + (env ? std::strtoull(env, nullptr, 10) : 0ULL));
    size_t accepted = 0;
    size_t rejected = 0;
    for (const std::vector<uint8_t> &base : inputs) {
        ASSERT_FALSE(base.empty());
        LengthWords words;
        ASSERT_TRUE(
            walkGrammar(base, EncodedImage::deserialize(base), words));
        for (int i = 0; i < mutantsPerInput; ++i) {
            std::vector<uint8_t> m = mutate(base, words, rng);
            EncodedImage e;
            std::string msg;
            StreamError err =
                EncodedImage::tryDeserialize(m.data(), m.size(), e, &msg);
            if (err == StreamError::None) {
                ++accepted;
                EXPECT_EQ(e.totalBytes(), m.size());
                LengthWords seen;
                EXPECT_TRUE(walkGrammar(m, e, seen))
                    << "accepted a mis-framed stream";
                expectDecodes(e);
                const size_t floor = streamHeaderFloor(m);
                ASSERT_LE(floor, m.size());
                for (size_t budget : {floor, floor + (m.size() - floor) / 2,
                                      std::max(floor, m.size() - 1)}) {
                    std::vector<uint8_t> cut = truncateStream(m, budget);
                    EXPECT_LE(cut.size(), budget);
                    EncodedImage c;
                    ASSERT_EQ(EncodedImage::tryDeserialize(
                                  cut.data(), cut.size(), c),
                              StreamError::None)
                        << "cut to " << budget << " of " << m.size();
                    expectDecodes(c);
                    // Decoding at the budget is decoding the cut.
                    const int last = static_cast<int>(e.tileCoded.size()) - 1;
                    std::vector<raster::Plane> atBudget =
                        decodeTiles(e, {0, last}, budget);
                    std::vector<raster::Plane> ofCut =
                        decodeTiles(c, {0, last});
                    for (size_t t = 0; t < 2; ++t)
                        EXPECT_EQ(atBudget[t].data(), ofCut[t].data())
                            << "tile " << t << " at budget " << budget
                            << " of " << m.size();
                }
            } else {
                ++rejected;
                EXPECT_TRUE(err == StreamError::Truncated ||
                            err == StreamError::Corrupt);
                EXPECT_FALSE(msg.empty());
            }
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

/** Smooth structure + mild noise (the progressive matrix content). */
raster::Plane
smoothImage(int w, int h, uint64_t seed)
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

/** Step edges + texture, stressing many bitplanes. */
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

/** Fresh EPC5 streams: 96- and 64-px tiles, at 1.5 and 8 bpp. */
std::vector<std::vector<uint8_t>>
freshEpc4Streams()
{
    raster::Plane img(150, 110);
    Rng rng(2024);
    for (int y = 0; y < img.height(); ++y)
        for (int x = 0; x < img.width(); ++x)
            img.at(x, y) = static_cast<float>(
                0.5 + 0.3 * std::sin(x * 0.05) * std::cos(y * 0.07) +
                rng.uniform(-0.02, 0.02));
    std::vector<std::vector<uint8_t>> out;
    EncodeParams p;
    p.tileSize = 96;
    p.bitsPerPixel = 1.5;
    out.push_back(encode(img, p).serialize());
    p.tileSize = 64;
    out.push_back(encode(img, p).serialize());
    p.bitsPerPixel = 8.0;
    out.push_back(encode(img, p).serialize());
    return out;
}

/**
 * The six progressive_test matrix cases, a 150x110 image at 8 bpp in
 * 96-px tiles, and a 128x128 image at 4 bpp in the default 64-px
 * tiles.
 */
std::vector<std::vector<uint8_t>>
matrixStreams()
{
    struct Case
    {
        double bitsPerPixel;
        int tileSize;
        bool edgy;
    };
    const Case cases[] = {{1.5, 96, false}, {1.5, 64, false},
                          {1.5, 96, true},  {1.5, 48, false},
                          {8.0, 96, false}, {8.0, 64, true}};
    std::vector<std::vector<uint8_t>> out;
    for (const Case &c : cases) {
        raster::Plane img = c.edgy ? edgyImage(150, 110, 91)
                                   : smoothImage(150, 110, 90);
        EncodeParams p;
        p.tileSize = c.tileSize;
        p.bitsPerPixel = c.bitsPerPixel;
        out.push_back(encode(img, p).serialize());
    }
    EncodeParams rich;
    rich.bitsPerPixel = 8.0;
    rich.tileSize = 96;
    out.push_back(encode(smoothImage(150, 110, 32), rich).serialize());
    EncodeParams dense;
    dense.bitsPerPixel = 4.0;
    out.push_back(encode(smoothImage(128, 128, 63), dense).serialize());
    return out;
}

/** An ROI subset: 3 of the 6 tiles coded. */
std::vector<uint8_t>
roiStream()
{
    raster::Plane img = edgyImage(150, 110, 94);
    raster::TileGrid grid(img.width(), img.height(), 64);
    raster::TileMask roi(grid);
    for (int t : {1, 3, 5})
        roi.set(t, true);
    EncodeParams p;
    p.bitsPerPixel = 2.0;
    p.roi = &roi;
    return encode(img, p).serialize();
}

} // namespace

TEST(StreamFuzz, MutatedStreamsParseOrFailTypedAndDecode)
{
    fuzzStreams(freshEpc4Streams(), 4, 1000);
}

TEST(StreamFuzz, MutatedMatrixStreamsParseOrFailTypedAndDecode)
{
    fuzzStreams(matrixStreams(), 3, 500);
}

TEST(StreamFuzz, MutatedRoiStreamParsesOrFailsTypedAndDecodes)
{
    fuzzStreams({roiStream()}, 5, 1000);
}

namespace {

/** `bytes` with the u32 at `at` set to `value`. */
std::vector<uint8_t>
withWord(std::vector<uint8_t> bytes, size_t at, uint32_t value)
{
    std::memcpy(bytes.data() + at, &value, 4);
    return bytes;
}

/**
 * Streams off the one-chunk-per-tile grid, by name: every length word
 * still fits its enclosing structure, so only the grid rules reject
 * them.
 */
std::vector<std::pair<std::string, std::vector<uint8_t>>>
offGridStreams()
{
    EncodeParams p;
    p.tileSize = kMaxTileSize;
    p.bitsPerPixel = 1.5;
    // One tile at 128 px and at 256 px alike, so only the tile-size cap
    // rejects the 256-px header. Header offsets: tileSize=12, chunk
    // height=36.
    const std::vector<uint8_t> one =
        encode(smoothImage(120, 100, 95), p).serialize();
    // Two tiles: chunkLen | subLen0 ecLen0 chunk0 | subLen1 ecLen1 chunk1.
    const std::vector<uint8_t> two =
        encode(smoothImage(200, 100, 96), p).serialize();
    const size_t chunkLenAt = kHeaderBytes + 1;
    const size_t subLenAt = chunkLenAt + 4;
    const uint32_t chunkLen = util::readPodAt<uint32_t>(two.data(), chunkLenAt);
    const uint32_t subLen0 = util::readPodAt<uint32_t>(two.data(), subLenAt);
    const uint32_t subLen1 =
        util::readPodAt<uint32_t>(two.data(), subLenAt + 4 + subLen0);
    // Zero entropy chunks: tile 0's sub-chunk emptied.
    std::vector<uint8_t> zero =
        withWord(withWord(two, chunkLenAt, chunkLen - subLen0), subLenAt, 0);
    zero.erase(zero.begin() + static_cast<ptrdiff_t>(subLenAt + 4),
               zero.begin() + static_cast<ptrdiff_t>(subLenAt + 4 + subLen0));
    // Two entropy chunks: tile 0's sub-chunk stretched over tile 1's,
    // whose subLen then frames a second chunk. The walk only stays in
    // step with the tiles if it checks that ecLen fills the sub-chunk.
    return {{"chunk height 64", withWord(one, 36, 64)},
            {"chunk height 129", withWord(one, 36, 129)},
            {"tile size 256", withWord(one, 12, 256)},
            {"zero entropy chunks", zero},
            {"two entropy chunks",
             withWord(two, subLenAt, subLen0 + 4 + subLen1)}};
}

} // namespace

TEST(StreamFuzz, OffGridHeadersAndSubChunksAreTypedCorrupt)
{
    // The grid a stream must sit on: chunk height kMaxTileSize, tiles
    // of at most kMaxTileSize, one entropy chunk per tile sub-chunk.
    EncodedImage e;
    for (const auto &[name, bytes] : offGridStreams()) {
        std::string msg;
        EXPECT_EQ(EncodedImage::tryDeserialize(bytes.data(), bytes.size(),
                                               e, &msg),
                  StreamError::Corrupt)
            << name << ": " << msg;
        EXPECT_FALSE(msg.empty()) << name;
    }
}

TEST(StreamFuzzDeath, OffGridStreamsAreFatalToDeserialize)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const auto &[name, bytes] : offGridStreams())
        EXPECT_EXIT(EncodedImage::deserialize(bytes),
                    ::testing::ExitedWithCode(1),
                    "chunk height|tile size|mis-framed")
            << name;
}

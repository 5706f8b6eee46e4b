/**
 * @file
 * Seeded mutation fuzz of the stream container walker behind
 * codec::EncodedImage::tryDeserialize() and of the decoder behind it.
 *
 * Inputs are fresh EPC4 encodes covering lossy and lossless coding,
 * several chunk heights and tile sizes, and an ROI subset. Each mutant
 * rewrites one of the container's length words — the payload chunkLen,
 * a tile subLen, an entropy-chunk ecLen or a segWord — and/or flips
 * bytes, and may be cut short. Every mutant must come back as a parsed
 * image or a typed StreamError; every parsed image must decode, whole
 * and tile by tile, and be cut by codec::truncateStream() at three
 * budgets into streams that parse and decode, without dying; the asan
 * and chaos
 * legs of ci/check.sh run this suite under ASan+UBSan, so an
 * out-of-bounds access or undefined arithmetic fails it.
 * EARTHPLUS_CHAOS_SEED selects the mutation stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "codec/codec.hh"
#include "raster/tile.hh"
#include "util/bytes.hh"
#include "util/rng.hh"

using namespace earthplus;
using namespace earthplus::codec;

namespace {

/** Fixed EPC4 header bytes, ahead of the coded-tile bitmap. */
constexpr size_t kHeaderBytes = 44;

/** Offsets of every length word in a well-formed stream, by kind. */
struct LengthWords
{
    std::vector<size_t> payload, sub, ec, seg;
};

/**
 * An independent walk of the grammar in docs/ARCHITECTURE.md over the
 * complete stream `bytes` whose header parsed into `e`: true when
 * every length word frames a body inside its enclosing structure.
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
        while (pos < subEnd) {
            const size_t ecEnd = body(words.ec, subEnd, 0);
            if (ecEnd == 0)
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

/** One mutant of `base`: length-word rewrite, byte flips and/or a cut. */
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
    return m;
}

/**
 * Fuzz `inputs`: every mutant parses or fails typed, accepted streams
 * are internally consistent, and every accepted stream decodes — the
 * whole plane, and its first and last tiles on their own — and cuts,
 * at the cutter's floor, halfway up and one byte short, into streams
 * that parse and decode the same way. Both outcomes must occur.
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
                EXPECT_LE(e.totalBytes(), m.size());
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

/** Round every pixel to 8 bits, as lossless inputs are. */
raster::Plane
eightBit(raster::Plane p)
{
    for (auto &v : p.data())
        v = std::round(v * 255.0f) / 255.0f;
    return p;
}

/** Fresh EPC4 streams: multi-chunk, lossy and lossless. */
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
    p.chunkRows = 32;
    p.bitsPerPixel = 1.5;
    out.push_back(encode(img, p).serialize());
    p.tileSize = 64;
    p.chunkRows = kDefaultChunkRows;
    out.push_back(encode(img, p).serialize());
    p.lossless = true;
    p.chunkRows = 48;
    out.push_back(encode(eightBit(img), p).serialize());
    return out;
}

/**
 * The six progressive_test matrix cases, a lossless 150x110 image in
 * 96-px tiles with 48-row chunks, and a 128x128 image at 4 bpp in the
 * default 64-px tiles.
 */
std::vector<std::vector<uint8_t>>
matrixStreams()
{
    struct Case
    {
        bool lossless;
        int tileSize;
        int chunkRows;
        bool edgy;
    };
    const Case cases[] = {{false, 96, 32, false}, {false, 64, 32, false},
                          {false, 96, 32, true},  {false, 48, 16, false},
                          {true, 96, 32, false},  {true, 64, 48, true}};
    std::vector<std::vector<uint8_t>> out;
    for (const Case &c : cases) {
        raster::Plane img = c.edgy ? edgyImage(150, 110, 91)
                                   : smoothImage(150, 110, 90);
        EncodeParams p;
        p.tileSize = c.tileSize;
        p.chunkRows = c.chunkRows;
        if (c.lossless) {
            p.lossless = true;
            img = eightBit(img);
        } else {
            p.bitsPerPixel = 1.5;
        }
        out.push_back(encode(img, p).serialize());
    }
    EncodeParams lossless;
    lossless.lossless = true;
    lossless.tileSize = 96;
    lossless.chunkRows = 48;
    out.push_back(
        encode(eightBit(smoothImage(150, 110, 32)), lossless).serialize());
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
    p.chunkRows = 32;
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

TEST(StreamFuzz, SubChunkMissingAnEntropyChunkParsesAndDecodes)
{
    // The walker checks framing, not how many entropy chunks a tile's
    // sub-chunk holds, so a well-framed sub-chunk one chunk short is
    // accepted: it must decode — the missing slab's coefficients as
    // zeros — and cut without dying. One 96-px tile in 32-row chunks has three.
    EncodeParams p;
    p.tileSize = 96;
    p.chunkRows = 32;
    p.bitsPerPixel = 1.5;
    std::vector<uint8_t> bytes =
        encode(smoothImage(96, 96, 95), p).serialize();
    const size_t chunkLenAt = kHeaderBytes + 1;
    const size_t subLenAt = chunkLenAt + 4;
    size_t last = subLenAt + 4;
    for (int c = 0; c < 2; ++c)
        last += 4 + util::readPodAt<uint32_t>(bytes.data(), last);
    const size_t dropped = bytes.size() - last;
    ASSERT_EQ(dropped, 4 + util::readPodAt<uint32_t>(bytes.data(), last));
    bytes.resize(last);
    for (size_t at : {chunkLenAt, subLenAt}) {
        const uint32_t len = util::readPodAt<uint32_t>(bytes.data(), at) -
                             static_cast<uint32_t>(dropped);
        std::memcpy(bytes.data() + at, &len, 4);
    }

    EncodedImage e;
    ASSERT_EQ(EncodedImage::tryDeserialize(bytes.data(), bytes.size(), e),
              StreamError::None);
    expectDecodes(e);
    std::vector<uint8_t> cut =
        truncateStream(bytes, streamHeaderFloor(bytes) + 16);
    ASSERT_EQ(EncodedImage::tryDeserialize(cut.data(), cut.size(), e),
              StreamError::None);
    expectDecodes(e);
}

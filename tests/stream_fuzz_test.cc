/**
 * @file
 * Seeded mutation fuzz of the stream container walker behind
 * codec::EncodedImage::tryDeserialize().
 *
 * Inputs are the checked-in EPC2/EPC3 streams (tests/data/) and fresh
 * EPC4 encodes. Each mutant rewrites one of the container's length
 * words — a layer chunkLen, a tile subLen, an entropy-chunk ecLen or
 * an EPC4 segWord — and/or flips bytes, and may be cut short. Every
 * mutant must come back as a parsed image or a typed StreamError; the
 * asan and chaos legs of ci/check.sh run this suite under ASan, so an
 * out-of-bounds read fails it. EARTHPLUS_CHAOS_SEED selects the
 * mutation stream.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "codec/codec.hh"
#include "test_data.hh"
#include "util/bytes.hh"
#include "util/rng.hh"

using namespace earthplus;
using namespace earthplus::codec;

namespace {

/** Offsets of every length word in a well-formed stream, by kind. */
struct LengthWords
{
    std::vector<size_t> layer, sub, ec, seg;
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
    size_t pos = streamHeaderFloor(bytes);
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
    for (int l = 0; l < e.layers; ++l) {
        const size_t layerEnd = body(words.layer, bytes.size(), 0);
        if (layerEnd == 0)
            return false;
        for (size_t t = 0; t < nCoded; ++t) {
            const size_t subEnd = body(words.sub, layerEnd, 0);
            if (subEnd == 0)
                return false;
            while (e.version != StreamVersion::V1 && pos < subEnd) {
                const size_t ecEnd = body(words.ec, subEnd, 0);
                if (ecEnd == 0)
                    return false;
                if (e.version == StreamVersion::V3) {
                    if (l == 0 && pos < ecEnd)
                        ++pos; // raw maxPlane byte
                    while (pos < ecEnd) {
                        const size_t segEnd = body(words.seg, ecEnd, 2);
                        if (segEnd == 0)
                            return false;
                        pos = segEnd;
                    }
                }
                pos = ecEnd;
            }
            pos = subEnd;
        }
        if (pos != layerEnd)
            return false;
    }
    return true;
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
    const std::vector<size_t> *kinds[] = {&words.layer, &words.sub,
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
 * Fuzz `inputs`: every mutant parses or fails typed, and accepted
 * streams are internally consistent. Both outcomes must occur.
 */
void
fuzzStreams(const std::vector<std::vector<uint8_t>> &inputs,
            uint64_t salt)
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
        for (int i = 0; i < 2000; ++i) {
            std::vector<uint8_t> m = mutate(base, words, rng);
            EncodedImage e;
            std::string msg;
            StreamError err =
                EncodedImage::tryDeserialize(m.data(), m.size(), e, &msg);
            if (err == StreamError::None) {
                ++accepted;
                EXPECT_LE(e.totalBytesForLayers(-1), m.size());
                EXPECT_TRUE(!e.truncated ||
                            e.version == StreamVersion::V3);
                LengthWords seen;
                EXPECT_TRUE(e.truncated || walkGrammar(m, e, seen))
                    << "accepted a mis-framed stream";
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

/** Fresh EPC4 streams: multi-layer, multi-chunk, lossy and lossless. */
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
    p.layers = 3;
    p.chunkRows = 32;
    p.bitsPerPixel = 1.5;
    out.push_back(encode(img, p).serialize());
    p.layers = 1;
    p.tileSize = 64;
    p.chunkRows = kDefaultChunkRows;
    out.push_back(encode(img, p).serialize());
    for (auto &v : img.data())
        v = std::round(v * 255.0f) / 255.0f;
    p.lossless = true;
    p.wavelet = Wavelet::LeGall53;
    p.layers = 2;
    p.chunkRows = 48;
    out.push_back(encode(img, p).serialize());
    return out;
}

} // namespace

TEST(StreamFuzz, MutatedEpc2StreamsParseOrFailTyped)
{
    fuzzStreams({testdata::load("lossless_150x110_epc2.bin")}, 2);
}

TEST(StreamFuzz, MutatedEpc3StreamsParseOrFailTyped)
{
    std::vector<std::vector<uint8_t>> inputs =
        testdata::loadRecords("progressive_epc3_refs.bin");
    inputs.push_back(testdata::load("lossless_150x110_epc3.bin"));
    inputs.push_back(testdata::load("plane_128x128_epc3.bin"));
    fuzzStreams(inputs, 3);
}

TEST(StreamFuzz, MutatedEpc4StreamsParseOrFailTyped)
{
    fuzzStreams(freshEpc4Streams(), 4);
}

/**
 * @file
 * Unit tests for the adaptive binary range coder.
 */

#include <gtest/gtest.h>

#include <vector>

#include "codec/rangecoder.hh"
#include "util/rng.hh"

using namespace earthplus;
using namespace earthplus::codec;

TEST(RangeCoder, RawBitsRoundtrip)
{
    std::vector<uint8_t> buf;
    RangeEncoder enc(buf);
    Rng rng(1);
    std::vector<int> bits;
    for (int i = 0; i < 1000; ++i)
        bits.push_back(rng.bernoulli(0.5) ? 1 : 0);
    for (int b : bits)
        enc.encodeBitRaw(b);
    enc.flush();

    RangeDecoder dec(buf.data(), buf.size());
    for (int b : bits)
        EXPECT_EQ(dec.decodeBitRaw(), b);
}

class RangeCoderBias : public ::testing::TestWithParam<double>
{
};

TEST_P(RangeCoderBias, ModeledBitsRoundtripAndCompress)
{
    double p1 = GetParam();
    Rng rng(42);
    std::vector<int> bits;
    for (int i = 0; i < 20000; ++i)
        bits.push_back(rng.bernoulli(p1) ? 1 : 0);

    std::vector<uint8_t> buf;
    RangeEncoder enc(buf);
    BitModel model;
    for (int b : bits)
        enc.encodeBit(model, b);
    enc.flush();

    RangeDecoder dec(buf.data(), buf.size());
    BitModel dmodel;
    for (int b : bits)
        ASSERT_EQ(dec.decodeBit(dmodel), b);

    // Biased streams must compress below 1 bit/symbol (with slack for
    // adaptation warm-up); near-uniform streams stay near 1.
    double bitsPerSymbol = 8.0 * static_cast<double>(buf.size()) /
                           static_cast<double>(bits.size());
    if (p1 <= 0.1 || p1 >= 0.9)
        EXPECT_LT(bitsPerSymbol, 0.65);
    else
        EXPECT_LT(bitsPerSymbol, 1.05);
}

INSTANTIATE_TEST_SUITE_P(Biases, RangeCoderBias,
                         ::testing::Values(0.02, 0.1, 0.3, 0.5, 0.7, 0.9,
                                           0.98));

TEST(RangeCoder, MultipleModelsInterleaved)
{
    Rng rng(7);
    std::vector<int> ctx, bits;
    for (int i = 0; i < 5000; ++i) {
        int c = static_cast<int>(rng.uniformInt(0, 3));
        ctx.push_back(c);
        // Context-dependent bias.
        bits.push_back(rng.bernoulli(0.1 + 0.25 * c) ? 1 : 0);
    }
    std::vector<uint8_t> buf;
    RangeEncoder enc(buf);
    BitModel models[4];
    for (size_t i = 0; i < bits.size(); ++i)
        enc.encodeBit(models[ctx[i]], bits[i]);
    enc.flush();

    RangeDecoder dec(buf.data(), buf.size());
    BitModel dmodels[4];
    for (size_t i = 0; i < bits.size(); ++i)
        ASSERT_EQ(dec.decodeBit(dmodels[ctx[i]]), bits[i]);
}

TEST(RangeCoder, TruncatedStreamDoesNotCrash)
{
    std::vector<uint8_t> buf;
    RangeEncoder enc(buf);
    BitModel model;
    for (int i = 0; i < 1000; ++i)
        enc.encodeBit(model, i % 3 == 0);
    enc.flush();

    // Decode from a prefix: values past the truncation point are
    // garbage but the decoder must not read out of bounds.
    RangeDecoder dec(buf.data(), buf.size() / 4);
    BitModel dmodel;
    for (int i = 0; i < 1000; ++i) {
        int b = dec.decodeBit(dmodel);
        EXPECT_TRUE(b == 0 || b == 1);
    }
}

TEST(RangeCoder, EmptyStreamDecodesZeros)
{
    RangeDecoder dec(nullptr, 0);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(dec.decodeBitRaw(), 0);
}

TEST(RangeCoder, ChunksAreIndependent)
{
    // Two consecutive flushes produce two independently decodable
    // chunks (the layered codec relies on this).
    std::vector<uint8_t> chunk1, chunk2;
    {
        RangeEncoder enc(chunk1);
        for (int i = 0; i < 100; ++i)
            enc.encodeBitRaw(i % 2);
        enc.flush();
    }
    {
        RangeEncoder enc(chunk2);
        for (int i = 0; i < 100; ++i)
            enc.encodeBitRaw((i / 2) % 2);
        enc.flush();
    }
    RangeDecoder d1(chunk1.data(), chunk1.size());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(d1.decodeBitRaw(), i % 2);
    RangeDecoder d2(chunk2.data(), chunk2.size());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(d2.decodeBitRaw(), (i / 2) % 2);
}

TEST(BitModelTest, SaturatesUnderZeros)
{
    // A long run of zeros drives the model to a fixed point.
    BitModel m;
    for (int i = 0; i < 400; ++i)
        m.update(0);
    BitModel next = m;
    next.update(0);
    EXPECT_EQ(next.prob(), m.prob());
    EXPECT_GT(m.prob(), BitModel::kOne - 32);
}

TEST(BitModelTest, AdaptsTowardObservedBits)
{
    BitModel m;
    uint16_t initial = m.prob();
    for (int i = 0; i < 50; ++i)
        m.update(0);
    EXPECT_GT(m.prob(), initial); // more confident the next bit is 0
    for (int i = 0; i < 200; ++i)
        m.update(1);
    EXPECT_LT(m.prob(), initial);
    EXPECT_GT(m.prob(), 0); // never reaches an impossible probability
}

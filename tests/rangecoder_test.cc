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

namespace {

/** The per-bit loop RangeDecoder::decodeUntilOne() stands for. */
int
decodeUntilOneByBits(RangeDecoder &dec, BitModel &model, int n)
{
    for (int i = 0; i < n; ++i)
        if (dec.decodeBit(model))
            return i;
    return n;
}

/**
 * A model after `zeros` coded zeros: 0 leaves it fresh, a few hundred
 * saturate it at its most confident "next bit is 0".
 */
BitModel
trainedModel(int zeros)
{
    BitModel m;
    for (int i = 0; i < zeros; ++i)
        m.update0();
    return m;
}

/** One step of a run-structured bit script. */
struct RunStep
{
    int model; ///< Index into a 4-model set.
    int zeros; ///< Run length, 0..64.
    bool one;  ///< Whether a 1 under the same model ends the run.
    int raw;   ///< A raw bit after it (a sign), or -1 for none.
};

std::vector<RunStep>
runScript(uint64_t seed, int steps)
{
    Rng rng(seed);
    std::vector<RunStep> script;
    for (int i = 0; i < steps; ++i) {
        RunStep s;
        s.model = static_cast<int>(rng.uniformInt(0, 3));
        s.zeros = static_cast<int>(rng.uniformInt(0, 64));
        s.one = rng.bernoulli(0.5);
        s.raw = rng.bernoulli(0.5) ? static_cast<int>(rng.uniformInt(0, 1))
                                   : -1;
        script.push_back(s);
    }
    return script;
}

/**
 * Encode `script` with the per-bit encodeBit() loop and with
 * encodeZeros(), checking after every run that the two coders agree
 * on the bytes written so far and on the model. Returns the flushed
 * bytes of the encodeZeros() coder; `renormRuns` counts the runs
 * during which it renormalized and so emitted bytes.
 */
std::vector<uint8_t>
encodeBothWays(const std::vector<RunStep> &script, int pretrain,
               int *renormRuns)
{
    std::vector<uint8_t> bitBuf, runBuf;
    RangeEncoder bitEnc(bitBuf), runEnc(runBuf);
    BitModel bitModels[4], runModels[4];
    for (int k = 0; k < 4; ++k)
        bitModels[k] = runModels[k] = trainedModel(pretrain);
    *renormRuns = 0;
    for (const RunStep &s : script) {
        for (int i = 0; i < s.zeros; ++i)
            bitEnc.encodeBit(bitModels[s.model], 0);
        const size_t before = runEnc.bytesWritten();
        runEnc.encodeZeros(runModels[s.model], s.zeros);
        *renormRuns += runEnc.bytesWritten() != before;
        EXPECT_EQ(runModels[s.model].prob(), bitModels[s.model].prob());
        EXPECT_EQ(runEnc.bytesWritten(), bitEnc.bytesWritten());
        if (s.one) {
            bitEnc.encodeBit(bitModels[s.model], 1);
            runEnc.encodeBit(runModels[s.model], 1);
        }
        if (s.raw >= 0) {
            bitEnc.encodeBitRaw(s.raw);
            runEnc.encodeBitRaw(s.raw);
        }
    }
    bitEnc.flush();
    runEnc.flush();
    EXPECT_EQ(runBuf, bitBuf);
    return runBuf;
}

/**
 * Decode `script` from `stream[0, size)` with the per-bit loop and
 * with decodeUntilOne(), side by side: every run must give the same
 * count, the same model and the same read position, and the raw bits
 * after it must stay in step. Returns the number of runs whose count
 * matched the script (all of them when the stream is whole).
 */
int
decodeBothWays(const std::vector<RunStep> &script, int pretrain,
               const uint8_t *stream, size_t size)
{
    RangeDecoder bitDec(stream, size), runDec(stream, size);
    BitModel bitModels[4], runModels[4];
    for (int k = 0; k < 4; ++k)
        bitModels[k] = runModels[k] = trainedModel(pretrain);
    int matched = 0;
    for (const RunStep &s : script) {
        // When a 1 follows the zeros, ask for one candidate beyond
        // it, so that the 1 has to end the run early.
        const int n = s.zeros + (s.one ? 2 : 0);
        const int byBits =
            decodeUntilOneByBits(bitDec, bitModels[s.model], n);
        const int byRun = runDec.decodeUntilOne(runModels[s.model], n);
        EXPECT_EQ(byRun, byBits);
        EXPECT_EQ(runModels[s.model].prob(), bitModels[s.model].prob());
        EXPECT_EQ(runDec.bytesRead(), bitDec.bytesRead());
        matched += byRun == (s.one ? s.zeros : n);
        if (s.raw >= 0) {
            EXPECT_EQ(runDec.decodeBitRaw(), bitDec.decodeBitRaw());
        }
    }
    EXPECT_EQ(runDec.decodeBit(runModels[0]),
              bitDec.decodeBit(bitModels[0]));
    EXPECT_EQ(runDec.bytesRead(), bitDec.bytesRead());
    return matched;
}

} // namespace

class RangeCoderRuns : public ::testing::TestWithParam<int>
{
};

TEST_P(RangeCoderRuns, EncodeZerosMatchesPerBitLoop)
{
    // encodeZeros() is n encodeBit(model, 0) calls: same bytes, same
    // model probability, same coder position after every run, over
    // runs of 0..64 that cross renormalizations.
    const int pretrain = GetParam();
    int renormRuns = 0;
    for (uint64_t seed = 1; seed <= 4; ++seed)
        encodeBothWays(runScript(seed, 400), pretrain, &renormRuns);
    EXPECT_GT(renormRuns, 40);
}

TEST_P(RangeCoderRuns, DecodeUntilOneMatchesPerBitLoop)
{
    const int pretrain = GetParam();
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        const std::vector<RunStep> script = runScript(seed, 400);
        int renormRuns = 0;
        std::vector<uint8_t> bytes =
            encodeBothWays(script, pretrain, &renormRuns);
        // The whole stream decodes the script exactly.
        EXPECT_EQ(decodeBothWays(script, pretrain, bytes.data(),
                                 bytes.size()),
                  static_cast<int>(script.size()));
    }
}

TEST_P(RangeCoderRuns, DecodeUntilOnePastTheEndStaysInStep)
{
    // Past the end of the buffer both decoders read zero bytes; the
    // run decoder must consume exactly what the per-bit loop does, so
    // every later decodeBit() still agrees.
    const int pretrain = GetParam();
    for (uint64_t seed = 5; seed <= 8; ++seed) {
        const std::vector<RunStep> script = runScript(seed, 300);
        int renormRuns = 0;
        std::vector<uint8_t> bytes =
            encodeBothWays(script, pretrain, &renormRuns);
        for (size_t keep : {size_t{0}, size_t{3}, bytes.size() / 3}) {
            SCOPED_TRACE(testing::Message() << "keep=" << keep);
            decodeBothWays(script, pretrain, bytes.data(), keep);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(FreshAndSaturated, RangeCoderRuns,
                         ::testing::Values(0, 400));

TEST(BitModelTest, SaturatesUnderZeros)
{
    // The saturated model the run tests start from really is fixed
    // under further zeros.
    BitModel m = trainedModel(400);
    BitModel next = m;
    next.update0();
    EXPECT_EQ(next.prob(), m.prob());
    EXPECT_GT(m.prob(), BitModel::kOne - 32);
}

TEST(BitModelTest, AdaptsTowardObservedBits)
{
    BitModel m;
    uint16_t initial = m.prob();
    for (int i = 0; i < 50; ++i)
        m.update0();
    EXPECT_GT(m.prob(), initial); // more confident the next bit is 0
    for (int i = 0; i < 200; ++i)
        m.update1();
    EXPECT_LT(m.prob(), initial);
    EXPECT_GT(m.prob(), 0); // never reaches an impossible probability
}

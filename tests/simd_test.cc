/**
 * @file
 * Dispatch-level equivalence tests for the vectorized codec kernels and
 * the CRC-32.
 *
 * The contract under test is strict: every kernel at every available
 * dispatch level must produce BITWISE-identical output to the scalar
 * table, including on sizes that are not multiples of the vector
 * width (loop tails and narrow column batches). The CRC-32 kernel is
 * held to its bitwise definition directly, at every level.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "codec/dwt.hh"
#include "codec/kernels.hh"
#include "util/crc32.hh"
#include "util/rng.hh"
#include "util/simd.hh"

using namespace earthplus;
using namespace earthplus::codec;
using util::simd::Level;

namespace {

/** Every available non-scalar level (the comparison targets). */
std::vector<Level>
vectorLevels()
{
    std::vector<Level> out;
    for (Level l : kernels::availableLevels())
        if (l != Level::Scalar)
            out.push_back(l);
    return out;
}

std::vector<float>
randomFloats(size_t n, uint64_t seed, float scale)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.normal(0.0, scale));
    return v;
}

template <typename T>
::testing::AssertionResult
bitwiseEqual(const std::vector<T> &a, const std::vector<T> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "size mismatch";
    if (std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) != 0) {
        for (size_t i = 0; i < a.size(); ++i)
            if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0)
                return ::testing::AssertionFailure()
                       << "first mismatch at index " << i << ": " << a[i]
                       << " vs " << b[i];
    }
    return ::testing::AssertionSuccess();
}

/** Every level with a CRC-32 kernel on this machine. */
std::vector<Level>
crcLevels()
{
    std::vector<Level> out;
    for (Level l : {Level::Scalar, Level::SSE2, Level::AVX2, Level::NEON})
        if (util::crc32ForLevel(l))
            out.push_back(l);
    return out;
}

/**
 * CRC-32/IEEE register update one bit at a time: the definition every
 * CRC kernel must match (no tables shared with the kernels).
 */
uint32_t
crcBitwise(uint32_t reg, const uint8_t *data, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        reg ^= data[i];
        for (int k = 0; k < 8; ++k)
            reg = (reg >> 1) ^ (0xEDB88320u & (0u - (reg & 1u)));
    }
    return reg;
}

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<uint8_t>(rng.uniformInt(0, 255));
    return v;
}

/** Sizes chosen to exercise vector bodies, tails and tiny inputs. */
const int kEdgeSizes[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                          31, 33, 63, 65, 67, 128};

} // namespace

TEST(Simd, ScalarAlwaysAvailable)
{
    auto levels = kernels::availableLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), Level::Scalar);
    EXPECT_NE(kernels::forLevel(Level::Scalar), nullptr);
    EXPECT_EQ(kernels::forLevel(Level::Scalar)->laneWidth, 1);
}

TEST(Simd, ActiveLevelFollowsOverride)
{
    Level prev = util::simd::activeLevel();
    for (Level l : kernels::availableLevels()) {
        EXPECT_EQ(util::simd::setActiveLevel(l), l);
        EXPECT_EQ(util::simd::activeLevel(), l);
        EXPECT_EQ(kernels::active().level, l);
    }
    util::simd::setActiveLevel(prev);
}

TEST(Simd, UnsupportedLevelFallsBackToBest)
{
    Level prev = util::simd::activeLevel();
    // At most one of NEON / SSE2 can be supported on one machine.
    Level impossible = util::simd::cpuSupports(Level::NEON)
        ? Level::SSE2
        : Level::NEON;
    EXPECT_EQ(util::simd::setActiveLevel(impossible),
              util::simd::bestSupported());
    util::simd::setActiveLevel(prev);
}

TEST(Simd, LevelNamesAreStable)
{
    EXPECT_STREQ(util::simd::levelName(Level::Scalar), "scalar");
    EXPECT_STREQ(util::simd::levelName(Level::SSE2), "sse2");
    EXPECT_STREQ(util::simd::levelName(Level::AVX2), "avx2");
    EXPECT_STREQ(util::simd::levelName(Level::NEON), "neon");
}

TEST(Simd, Dwt97BitwiseMatchesScalarOnOddSizes)
{
    const kernels::KernelTable *scalar = kernels::forLevel(Level::Scalar);
    for (Level l : vectorLevels()) {
        const kernels::KernelTable *vec = kernels::forLevel(l);
        for (int w : kEdgeSizes) {
            for (int h : {1, 2, 5, 16, 33, 67}) {
                size_t n = static_cast<size_t>(w) * h;
                auto ref = randomFloats(n, 1000 + w * 131 + h, 0.5f);
                auto got = ref;
                scalar->fwd97(ref.data(), w, w, h);
                vec->fwd97(got.data(), w, w, h);
                ASSERT_TRUE(bitwiseEqual(ref, got))
                    << util::simd::levelName(l) << " fwd97 " << w << "x"
                    << h;
                scalar->inv97(ref.data(), w, w, h);
                vec->inv97(got.data(), w, w, h);
                ASSERT_TRUE(bitwiseEqual(ref, got))
                    << util::simd::levelName(l) << " inv97 " << w << "x"
                    << h;
            }
        }
    }
}

TEST(Simd, MultiLevelDwtMatchesScalarThroughDispatch)
{
    // Drive the public dwt entry points (several decomposition levels,
    // non-square, odd dimensions) through the runtime dispatch switch.
    Level prev = util::simd::activeLevel();
    const int w = 203, h = 131;
    size_t n = static_cast<size_t>(w) * h;
    auto base = randomFloats(n, 42, 0.4f);

    util::simd::setActiveLevel(Level::Scalar);
    auto ref = base;
    forwardDwt97(ref, w, h, 4);
    auto refInv = ref;
    inverseDwt97(refInv, w, h, 4);

    for (Level l : vectorLevels()) {
        util::simd::setActiveLevel(l);
        auto got = base;
        forwardDwt97(got, w, h, 4);
        ASSERT_TRUE(bitwiseEqual(ref, got)) << util::simd::levelName(l);
        inverseDwt97(got, w, h, 4);
        ASSERT_TRUE(bitwiseEqual(refInv, got))
            << util::simd::levelName(l);
    }
    util::simd::setActiveLevel(prev);
}

TEST(Simd, QuantizeKernelsMatchScalar)
{
    const kernels::KernelTable *scalar = kernels::forLevel(Level::Scalar);
    for (Level l : vectorLevels()) {
        const kernels::KernelTable *vec = kernels::forLevel(l);
        for (int size : kEdgeSizes) {
            size_t n = static_cast<size_t>(size);
            auto coeffs = randomFloats(n, 3000 + size, 2.0f);
            std::vector<uint32_t> magA(n), magB(n);
            std::vector<uint8_t> signA(n), signB(n);
            scalar->quantF32(coeffs.data(), n, 512.0f, magA.data(),
                             signA.data());
            vec->quantF32(coeffs.data(), n, 512.0f, magB.data(),
                          signB.data());
            ASSERT_TRUE(bitwiseEqual(magA, magB)) << "quantF32 " << size;
            ASSERT_TRUE(bitwiseEqual(signA, signB)) << "quantF32 " << size;

            EXPECT_EQ(scalar->maxU32(magA.data(), n),
                      vec->maxU32(magA.data(), n));
        }
    }
}

TEST(Simd, MaxU32IsUnsignedAboveIntMax)
{
    // Magnitudes >= 2^31 appear when a saturated quantizer overflows;
    // they must win the reduction (at every level) so the encoder's
    // bitplane-overflow assert fires instead of silently dropping
    // high bits.
    std::vector<uint32_t> mag(19, 5u);
    mag[7] = 0x80000000u; // INT32_MIN bit pattern
    mag[13] = 0xFFFFFFFFu;
    for (Level l : kernels::availableLevels()) {
        const kernels::KernelTable *t = kernels::forLevel(l);
        EXPECT_EQ(t->maxU32(mag.data(), mag.size()), 0xFFFFFFFFu)
            << util::simd::levelName(l);
        EXPECT_EQ(t->maxU32(mag.data(), 8), 0x80000000u)
            << util::simd::levelName(l);
    }
    EXPECT_EQ(kernels::forLevel(Level::Scalar)->maxU32(nullptr, 0), 0u);
}

TEST(Simd, DequantizeKernelsMatchScalar)
{
    const kernels::KernelTable *scalar = kernels::forLevel(Level::Scalar);
    for (Level l : vectorLevels()) {
        const kernels::KernelTable *vec = kernels::forLevel(l);
        for (int size : kEdgeSizes) {
            size_t n = static_cast<size_t>(size);
            Rng rng(5000 + size);
            std::vector<uint32_t> mag(n);
            std::vector<uint8_t> sign(n), low(n);
            for (size_t i = 0; i < n; ++i) {
                // Mix zero and non-zero magnitudes to hit both branches.
                mag[i] = rng.uniformInt(0, 3) == 0
                    ? 0u
                    : static_cast<uint32_t>(rng.uniformInt(1, 1 << 20));
                sign[i] = static_cast<uint8_t>(rng.uniformInt(0, 1));
                low[i] = static_cast<uint8_t>(rng.uniformInt(0, 20));
            }
            std::vector<float> fa(n), fb(n);
            scalar->dequant97(mag.data(), sign.data(), low.data(), n,
                              1.0f / 512.0f, fa.data());
            vec->dequant97(mag.data(), sign.data(), low.data(), n,
                           1.0f / 512.0f, fb.data());
            ASSERT_TRUE(bitwiseEqual(fa, fb)) << "dequant97 " << size;
        }
    }
}

TEST(Simd, PixelConversionKernelsMatchScalar)
{
    const kernels::KernelTable *scalar = kernels::forLevel(Level::Scalar);
    for (Level l : vectorLevels()) {
        const kernels::KernelTable *vec = kernels::forLevel(l);
        for (int size : kEdgeSizes) {
            size_t n = static_cast<size_t>(size);
            auto pix = randomFloats(n, 6000 + size, 0.6f);
            std::vector<float> fa(n), fb(n);
            scalar->centerF(pix.data(), n, fa.data());
            vec->centerF(pix.data(), n, fb.data());
            ASSERT_TRUE(bitwiseEqual(fa, fb)) << "centerF " << size;

            scalar->uncenterClampF(pix.data(), n, 0.0f, 1.0f, fa.data());
            vec->uncenterClampF(pix.data(), n, 0.0f, 1.0f, fb.data());
            ASSERT_TRUE(bitwiseEqual(fa, fb)) << "uncenterClamp " << size;
        }
    }
}

TEST(Simd, BitplaneMaskMatchesScalarAndDefinition)
{
    const kernels::KernelTable *scalar = kernels::forLevel(Level::Scalar);
    for (int size : kEdgeSizes) {
        // Lengths straddling word boundaries: tails of both the vector
        // loop and the 64-bit packing must agree.
        size_t n = static_cast<size_t>(size) * 13 + 1;
        Rng rng(9000 + static_cast<uint64_t>(size));
        std::vector<uint32_t> mag(n);
        for (auto &m : mag)
            m = rng.uniformInt(0, 4) == 0
                ? 0u
                : static_cast<uint32_t>(rng.uniformInt(0, 1 << 20));
        size_t nWords = (n + 63) / 64;
        std::vector<uint64_t> a(nWords, ~0ull), b(nWords, ~0ull);
        for (int plane : {0, 3, 11, 19, 30}) {
            scalar->bitplaneMask(mag.data(), n, plane, a.data());
            // Definition check against the scalar table.
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ((a[i / 64] >> (i % 64)) & 1u,
                          static_cast<uint64_t>((mag[i] >> plane) & 1u))
                    << "bit " << i << " plane " << plane;
            // Bits past n must be cleared, not left stale.
            if (n % 64 != 0) {
                ASSERT_EQ(a[nWords - 1] >> (n % 64), 0ull)
                    << "stale tail bits, plane " << plane;
            }
            for (Level l : vectorLevels()) {
                const kernels::KernelTable *vec = kernels::forLevel(l);
                vec->bitplaneMask(mag.data(), n, plane, b.data());
                ASSERT_TRUE(bitwiseEqual(a, b))
                    << "bitplaneMask n=" << n << " plane=" << plane
                    << " level=" << util::simd::levelName(l);
            }
        }
    }
}

TEST(Simd, Crc32MatchesBitwiseDefinitionAtEveryLengthAndAlignment)
{
    // Every length through the fold's 64-byte threshold, its 16-byte
    // blocks and every tail, at every misalignment. Each input sits at
    // the end of an exactly-sized heap block, so under ASan a read
    // past the last byte faults.
    const size_t kMaxLen = 1100;
    std::vector<uint8_t> src = randomBytes(kMaxLen, 9300);
    std::vector<uint32_t> expect(kMaxLen + 1);
    uint32_t reg = 0xFFFFFFFFu;
    expect[0] = 0;
    for (size_t len = 1; len <= kMaxLen; ++len) {
        reg = crcBitwise(reg, &src[len - 1], 1);
        expect[len] = ~reg;
    }
    for (size_t len = 0; len <= kMaxLen; ++len) {
        for (size_t mis = 0; mis < 16; ++mis) {
            std::unique_ptr<uint8_t[]> block(new uint8_t[mis + len]);
            uint8_t *data = block.get() + mis;
            if (len > 0)
                std::memcpy(data, src.data(), len);
            for (Level l : crcLevels()) {
                uint32_t got = util::crc32ForLevel(l)(0, data, len);
                ASSERT_EQ(got, expect[len])
                    << "len=" << len << " misalignment=" << mis
                    << " level=" << util::simd::levelName(l);
            }
        }
    }
}

TEST(Simd, Crc32MatchesBitwiseDefinitionOnOneMebibyte)
{
    std::vector<uint8_t> buf = randomBytes(size_t{1} << 20, 9301);
    uint32_t expect = ~crcBitwise(0xFFFFFFFFu, buf.data(), buf.size());
    for (Level l : crcLevels())
        EXPECT_EQ(util::crc32ForLevel(l)(0, buf.data(), buf.size()), expect)
            << "level=" << util::simd::levelName(l);
}

TEST(Simd, Crc32UpdateChainsAtEverySplitThroughDispatch)
{
    // util::crc32/crc32Update route through the active level: check the
    // check value and that chaining at any split is the one-shot CRC,
    // at every level.
    std::vector<uint8_t> buf = randomBytes(257, 9302);
    const char *check = "123456789";
    Level prev = util::simd::activeLevel();
    for (Level l : crcLevels()) {
        ASSERT_EQ(util::simd::setActiveLevel(l), l);
        EXPECT_EQ(util::crc32(reinterpret_cast<const uint8_t *>(check), 9),
                  0xCBF43926u);
        uint32_t oneShot = util::crc32(buf.data(), buf.size());
        EXPECT_EQ(oneShot, ~crcBitwise(0xFFFFFFFFu, buf.data(), buf.size()));
        for (size_t split = 0; split <= buf.size(); ++split) {
            uint32_t head = util::crc32(buf.data(), split);
            EXPECT_EQ(util::crc32Update(head, buf.data() + split,
                                        buf.size() - split),
                      oneShot)
                << "split=" << split << " level=" << util::simd::levelName(l);
        }
    }
    util::simd::setActiveLevel(prev);
}

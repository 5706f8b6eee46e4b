/**
 * @file
 * Unit tests for the util substrate: formatting, RNG, statistics,
 * tables and unit conversions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/bytes.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace earthplus;

TEST(Bytes, BitWidthMatchesDefinition)
{
    // Edge values, including the ones the bitplane header depends on:
    // 0 (all-zero tile -> maxPlane -1) and 2^30 (the highest legal
    // magnitude bitplane).
    EXPECT_EQ(util::bitWidth(0u), 0);
    EXPECT_EQ(util::bitWidth(1u), 1);
    EXPECT_EQ(util::bitWidth(2u), 2);
    EXPECT_EQ(util::bitWidth(3u), 2);
    EXPECT_EQ(util::bitWidth(4u), 3);
    EXPECT_EQ(util::bitWidth(255u), 8);
    EXPECT_EQ(util::bitWidth(256u), 9);
    EXPECT_EQ(util::bitWidth(1u << 30), 31);
    EXPECT_EQ(util::bitWidth((1u << 30) - 1), 30);
    EXPECT_EQ(util::bitWidth(0x80000000u), 32);
    EXPECT_EQ(util::bitWidth(0xFFFFFFFFu), 32);
    // Exhaustive against the loop definition over every power of two
    // and its neighbors.
    for (int p = 0; p < 32; ++p) {
        uint32_t v = 1u << p;
        EXPECT_EQ(util::bitWidth(v), p + 1) << "v=2^" << p;
        if (v > 1) {
            EXPECT_EQ(util::bitWidth(v - 1), p) << "v=2^" << p << "-1";
        }
    }
}

TEST(Bytes, CountTrailingZerosMatchesDefinition)
{
    EXPECT_EQ(util::countTrailingZeros(1ull), 0);
    EXPECT_EQ(util::countTrailingZeros(2ull), 1);
    EXPECT_EQ(util::countTrailingZeros(0x8000000000000000ull), 63);
    EXPECT_EQ(util::countTrailingZeros(0xFFFFFFFFFFFFFFFFull), 0);
    for (int p = 0; p < 64; ++p)
        EXPECT_EQ(util::countTrailingZeros(1ull << p), p);
    // The pass loops' idiom: ctz + clear-lowest enumerates set bits in
    // ascending order.
    uint64_t m = (1ull << 3) | (1ull << 17) | (1ull << 63);
    EXPECT_EQ(util::countTrailingZeros(m), 3);
    m &= m - 1;
    EXPECT_EQ(util::countTrailingZeros(m), 17);
    m &= m - 1;
    EXPECT_EQ(util::countTrailingZeros(m), 63);
}

TEST(Bytes, PopCountMatchesDefinition)
{
    EXPECT_EQ(util::popCount(0ull), 0);
    EXPECT_EQ(util::popCount(0xFFFFFFFFFFFFFFFFull), 64);
    EXPECT_EQ(util::popCount(0x8000000000000001ull), 2);
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.next();
        int n = 0;
        for (int b = 0; b < 64; ++b)
            n += static_cast<int>((v >> b) & 1u);
        EXPECT_EQ(util::popCount(v), n) << "v=" << v;
    }
}

TEST(Logging, StrfmtFormatsLikePrintf)
{
    EXPECT_EQ(strfmt("x=%d y=%.1f s=%s", 3, 2.5, "hi"), "x=3 y=2.5 s=hi");
    EXPECT_EQ(strfmt("no args"), "no args");
    EXPECT_EQ(strfmt("%d%%", 50), "50%");
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double lo = 1.0, hi = 0.0, sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double u = rng.uniform();
        lo = std::min(lo, u);
        hi = std::max(hi, u);
        sum += u;
    }
    EXPECT_GE(lo, 0.0);
    EXPECT_LT(hi, 1.0);
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversInclusiveRange)
{
    Rng rng(9);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        sawLo |= v == 3;
        sawHi |= v == 7;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(11);
    RunningStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.normal(2.0, 3.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.1);
    EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 30000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(0.25);
    EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, BernoulliFrequencyMatches)
{
    Rng rng(19);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkedStreamsAreDecorrelated)
{
    Rng parent(123);
    Rng a = parent.fork(1);
    Rng b = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
    // Forking is deterministic: the same salt yields the same stream.
    Rng c = parent.fork(1);
    Rng d = Rng(123).fork(1);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(c.next(), d.next());
}

TEST(RunningStats, BasicMoments)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(EmpiricalDistribution, QuantilesAndCdf)
{
    EmpiricalDistribution d;
    for (int i = 1; i <= 100; ++i)
        d.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 100.0);
    EXPECT_NEAR(d.quantile(0.5), 50.5, 1e-9);
    EXPECT_NEAR(d.cdf(50.0), 0.5, 0.01);
    EXPECT_DOUBLE_EQ(d.cdf(0.0), 0.0);
    EXPECT_DOUBLE_EQ(d.cdf(1000.0), 1.0);
    EXPECT_NEAR(d.mean(), 50.5, 1e-9);
}

TEST(Units, LinkConversions)
{
    EXPECT_DOUBLE_EQ(units::bytesToMbits(1e6), 8.0);
    EXPECT_NEAR(units::bytesOverSecondsToMbps(15e9, 600.0), 200.0, 1e-9);
    EXPECT_DOUBLE_EQ(units::bytesToGB(2.5e9), 2.5);
    EXPECT_DOUBLE_EQ(units::mbToBytes(150.0), 150e6);
}

TEST(TablePrinting, AlignsAndFormats)
{
    Table t("demo");
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    t.addRow({"long-cell", "x"});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("long-cell"), std::string::npos);
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
}

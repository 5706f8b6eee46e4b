/**
 * @file
 * Unit and property tests for the lifting CDF 9/7 DWT.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "codec/dwt.hh"
#include "util/rng.hh"

using namespace earthplus;
using namespace earthplus::codec;

namespace {

std::vector<float>
randomSignal(int w, int h, uint64_t seed)
{
    std::vector<float> v(static_cast<size_t>(w) * h);
    Rng rng(seed);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-0.5, 0.5));
    return v;
}

} // namespace

struct DwtCase
{
    int width;
    int height;
    int levels;
};

class DwtRoundtrip : public ::testing::TestWithParam<DwtCase>
{
};

TEST_P(DwtRoundtrip, Cdf97IsNearPerfect)
{
    auto [w, h, levels] = GetParam();
    auto data = randomSignal(w, h, 11);
    auto orig = data;
    forwardDwt97(data, w, h, levels);
    inverseDwt97(data, w, h, levels);
    double maxErr = 0.0;
    for (size_t i = 0; i < data.size(); ++i)
        maxErr = std::max(maxErr,
                          std::abs(static_cast<double>(data[i]) - orig[i]));
    EXPECT_LT(maxErr, 1e-4) << w << "x" << h << " levels=" << levels;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DwtRoundtrip,
    ::testing::Values(DwtCase{64, 64, 1}, DwtCase{64, 64, 4},
                      DwtCase{64, 64, 6}, DwtCase{32, 64, 3},
                      DwtCase{63, 61, 4}, DwtCase{17, 5, 3},
                      DwtCase{7, 7, 2}, DwtCase{1, 16, 2},
                      DwtCase{16, 1, 2}, DwtCase{2, 2, 1},
                      DwtCase{128, 128, 5}, DwtCase{5, 128, 4}));

TEST(Dwt, ZeroLevelsIsIdentity)
{
    auto data = randomSignal(8, 8, 17);
    auto orig = data;
    forwardDwt97(data, 8, 8, 0);
    EXPECT_EQ(data, orig);
}

TEST(Dwt, SmoothSignalCompactsEnergyIntoLowband)
{
    // A smooth gradient should leave almost no energy in the detail
    // subbands — the property rate-distortion coding relies on.
    int n = 64;
    std::vector<float> data(static_cast<size_t>(n) * n);
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
            data[static_cast<size_t>(y) * n + x] =
                static_cast<float>(x + y) / (2.0f * n);
    forwardDwt97(data, n, n, 3);
    auto orient = subbandOrientation(n, n, 3);
    double llEnergy = 0.0, detailEnergy = 0.0;
    for (size_t i = 0; i < data.size(); ++i) {
        double e = static_cast<double>(data[i]) * data[i];
        if (orient[i] == 0)
            llEnergy += e;
        else
            detailEnergy += e;
    }
    EXPECT_GT(llEnergy, 100.0 * detailEnergy);
}

TEST(Dwt, OrientationMapPartitionsCorrectly)
{
    int w = 64, h = 64, levels = 3;
    auto orient = subbandOrientation(w, h, levels);
    // LL occupies the top-left (w>>levels)x(h>>levels) corner.
    int llw = w >> levels, llh = h >> levels;
    size_t llCount = 0;
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            uint8_t o = orient[static_cast<size_t>(y) * w + x];
            ASSERT_LE(o, 3);
            if (x < llw && y < llh) {
                EXPECT_EQ(o, 0) << x << "," << y;
                ++llCount;
            }
        }
    }
    EXPECT_EQ(llCount, static_cast<size_t>(llw) * llh);
    // First-level HH quadrant: bottom-right.
    EXPECT_EQ(orient[static_cast<size_t>(h - 1) * w + (w - 1)], 3);
    // First-level HL: right half, top.
    EXPECT_EQ(orient[static_cast<size_t>(0) * w + (w - 1)], 1);
    // First-level LH: bottom, left half.
    EXPECT_EQ(orient[static_cast<size_t>(h - 1) * w + 0], 2);
}

TEST(Dwt, ExcessLevelsDegradeGracefully)
{
    // More levels than log2(size) must still roundtrip.
    auto data = randomSignal(8, 8, 19);
    auto orig = data;
    forwardDwt97(data, 8, 8, 10);
    inverseDwt97(data, 8, 8, 10);
    for (size_t i = 0; i < data.size(); ++i)
        EXPECT_NEAR(data[i], orig[i], 1e-4) << "sample " << i;
}

TEST(Dwt, ConstantSignalStaysConstantInDetail)
{
    // The highpass filter sums to zero, so a constant leaves only
    // rounding error outside LL.
    std::vector<float> data(64 * 64, 0.4f);
    forwardDwt97(data, 64, 64, 4);
    auto orient = subbandOrientation(64, 64, 4);
    for (size_t i = 0; i < data.size(); ++i) {
        if (orient[i] != 0) {
            EXPECT_NEAR(data[i], 0.0f, 1e-5) << "detail coefficient " << i;
        }
    }
}

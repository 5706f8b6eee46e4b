#include "cloud/features.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/parallel.hh"

namespace earthplus::cloud {

BandRoles
rolesFor(const std::vector<synth::BandSpec> &bands)
{
    BandRoles roles;
    for (int b = 0; b < static_cast<int>(bands.size()); ++b) {
        const auto &spec = bands[static_cast<size_t>(b)];
        if (spec.coldClouds)
            roles.infrared.push_back(b);
        else if (spec.atmosphere < 0.3)
            roles.visible.push_back(b);
    }
    if (roles.visible.empty()) {
        // Degenerate single-band datasets: use whatever exists.
        for (int b = 0; b < static_cast<int>(bands.size()); ++b)
            roles.visible.push_back(b);
    }
    return roles;
}

raster::Plane
bandMean(const raster::Image &img, const std::vector<int> &bandIdx)
{
    raster::Plane out(img.width(), img.height(), 0.0f);
    if (bandIdx.empty())
        return out;
    for (int b : bandIdx) {
        const raster::Plane &src = img.band(b);
        for (size_t i = 0; i < out.data().size(); ++i)
            out.data()[i] += src.data()[i];
    }
    float inv = 1.0f / static_cast<float>(bandIdx.size());
    for (auto &v : out.data())
        v *= inv;
    return out;
}

raster::Plane
bandMeanDownsample(const raster::Image &img, const std::vector<int> &bandIdx,
                   int factor)
{
    EP_ASSERT(factor >= 1, "invalid downsample factor %d", factor);
    const int w = img.width();
    const int h = img.height();
    const int ow = (w + factor - 1) / factor;
    const int oh = (h + factor - 1) / factor;
    raster::Plane out(ow, oh, 0.0f);
    if (bandIdx.empty())
        return out;
    const float inv = 1.0f / static_cast<float>(bandIdx.size());
    util::ThreadPool::global().parallelFor(0, oh, [&](int64_t oyl) {
        const int oy = static_cast<int>(oyl);
        const int y0 = oy * factor;
        const int y1 = std::min(y0 + factor, h);
        std::vector<float> mean(static_cast<size_t>(w));
        std::vector<double> sums(static_cast<size_t>(ow), 0.0);
        for (int y = y0; y < y1; ++y) {
            // The mean row exactly as bandMean() builds it ...
            std::fill(mean.begin(), mean.end(), 0.0f);
            for (int b : bandIdx) {
                const float *src = img.band(b).row(y);
                for (int x = 0; x < w; ++x)
                    mean[static_cast<size_t>(x)] += src[x];
            }
            for (float &v : mean)
                v *= inv;
            // ... added to each block's sum row by row, left to right:
            // the order raster::downsample() adds a block in.
            for (int ox = 0; ox < ow; ++ox) {
                const int x1 = std::min((ox + 1) * factor, w);
                double sum = sums[static_cast<size_t>(ox)];
                for (int x = ox * factor; x < x1; ++x)
                    sum += mean[static_cast<size_t>(x)];
                sums[static_cast<size_t>(ox)] = sum;
            }
        }
        for (int ox = 0; ox < ow; ++ox) {
            const int n = (y1 - y0) * (std::min((ox + 1) * factor, w) -
                                       ox * factor);
            out.at(ox, oy) =
                static_cast<float>(sums[static_cast<size_t>(ox)] / n);
        }
    });
    return out;
}

namespace {

/**
 * Summed-area table over the plane, (w+1)x(h+1), for O(1) box sums.
 */
std::vector<double>
integralImage(const raster::Plane &p)
{
    int w = p.width();
    int h = p.height();
    std::vector<double> sat(static_cast<size_t>(w + 1) *
                            static_cast<size_t>(h + 1), 0.0);
    for (int y = 0; y < h; ++y) {
        const float *row = p.row(y);
        double rowsum = 0.0;
        for (int x = 0; x < w; ++x) {
            rowsum += row[x];
            sat[static_cast<size_t>(y + 1) * (w + 1) + (x + 1)] =
                sat[static_cast<size_t>(y) * (w + 1) + (x + 1)] + rowsum;
        }
    }
    return sat;
}

double
boxSum(const std::vector<double> &sat, int w, int x0, int y0, int x1,
       int y1)
{
    // Sum over [x0, x1) x [y0, y1).
    return sat[static_cast<size_t>(y1) * (w + 1) + x1] -
           sat[static_cast<size_t>(y0) * (w + 1) + x1] -
           sat[static_cast<size_t>(y1) * (w + 1) + x0] +
           sat[static_cast<size_t>(y0) * (w + 1) + x0];
}

} // anonymous namespace

raster::Plane
boxBlur(const raster::Plane &p, int radius)
{
    EP_ASSERT(radius >= 0, "negative blur radius");
    int w = p.width();
    int h = p.height();
    raster::Plane out(w, h);
    auto sat = integralImage(p);
    for (int y = 0; y < h; ++y) {
        int y0 = std::max(0, y - radius);
        int y1 = std::min(h, y + radius + 1);
        float *row = out.row(y);
        for (int x = 0; x < w; ++x) {
            int x0 = std::max(0, x - radius);
            int x1 = std::min(w, x + radius + 1);
            double n = static_cast<double>((x1 - x0) * (y1 - y0));
            row[x] = static_cast<float>(boxSum(sat, w, x0, y0, x1, y1) / n);
        }
    }
    return out;
}

raster::Plane
localStddev(const raster::Plane &p, int radius)
{
    EP_ASSERT(radius >= 0, "negative window radius");
    int w = p.width();
    int h = p.height();
    raster::Plane sq(w, h);
    for (size_t i = 0; i < p.data().size(); ++i)
        sq.data()[i] = p.data()[i] * p.data()[i];
    auto sat = integralImage(p);
    auto sat2 = integralImage(sq);
    raster::Plane out(w, h);
    for (int y = 0; y < h; ++y) {
        int y0 = std::max(0, y - radius);
        int y1 = std::min(h, y + radius + 1);
        float *row = out.row(y);
        for (int x = 0; x < w; ++x) {
            int x0 = std::max(0, x - radius);
            int x1 = std::min(w, x + radius + 1);
            double n = static_cast<double>((x1 - x0) * (y1 - y0));
            double mean = boxSum(sat, w, x0, y0, x1, y1) / n;
            double var = boxSum(sat2, w, x0, y0, x1, y1) / n - mean * mean;
            row[x] = static_cast<float>(std::sqrt(std::max(var, 0.0)));
        }
    }
    return out;
}

} // namespace earthplus::cloud

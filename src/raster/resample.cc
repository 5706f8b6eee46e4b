#include "raster/resample.hh"

#include <algorithm>

#include "util/logging.hh"

namespace earthplus::raster {

namespace {

int
outDim(int in, int factor)
{
    return (in + factor - 1) / factor;
}

} // anonymous namespace

Plane
downsample(const Plane &src, int factor)
{
    EP_ASSERT(factor >= 1, "invalid downsample factor %d", factor);
    if (factor == 1)
        return src;
    int ow = outDim(src.width(), factor);
    int oh = outDim(src.height(), factor);
    Plane out(ow, oh);
    for (int oy = 0; oy < oh; ++oy) {
        int y0 = oy * factor;
        int y1 = std::min(y0 + factor, src.height());
        for (int ox = 0; ox < ow; ++ox) {
            int x0 = ox * factor;
            int x1 = std::min(x0 + factor, src.width());
            double sum = 0.0;
            for (int y = y0; y < y1; ++y) {
                const float *row = src.row(y);
                for (int x = x0; x < x1; ++x)
                    sum += row[x];
            }
            int n = (y1 - y0) * (x1 - x0);
            out.at(ox, oy) = n ? static_cast<float>(sum / n) : 0.0f;
        }
    }
    return out;
}

Plane
downsampleFraction(const Bitmap &src, int factor)
{
    EP_ASSERT(factor >= 1, "invalid downsample factor %d", factor);
    int ow = outDim(src.width(), factor);
    int oh = outDim(src.height(), factor);
    Plane out(ow, oh);
    for (int oy = 0; oy < oh; ++oy) {
        int y0 = oy * factor;
        int y1 = std::min(y0 + factor, src.height());
        for (int ox = 0; ox < ow; ++ox) {
            int x0 = ox * factor;
            int x1 = std::min(x0 + factor, src.width());
            int set = 0;
            for (int y = y0; y < y1; ++y)
                for (int x = x0; x < x1; ++x)
                    set += src.get(x, y) ? 1 : 0;
            int n = (y1 - y0) * (x1 - x0);
            out.at(ox, oy) =
                n ? static_cast<float>(set) / static_cast<float>(n) : 0.0f;
        }
    }
    return out;
}

Bitmap
downsampleAny(const Bitmap &src, int factor)
{
    Plane frac = downsampleFraction(src, factor);
    Bitmap out(frac.width(), frac.height());
    for (int y = 0; y < frac.height(); ++y)
        for (int x = 0; x < frac.width(); ++x)
            out.set(x, y, frac.at(x, y) > 0.0f);
    return out;
}

} // namespace earthplus::raster

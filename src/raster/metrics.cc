#include "raster/metrics.hh"

#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace earthplus::raster {

namespace {

template <typename Accum>
double
maskedReduce(const Plane &a, const Plane &b, const Bitmap *valid,
             Accum accum)
{
    EP_ASSERT(a.sameShape(b), "metric on mismatched planes %dx%d vs %dx%d",
              a.width(), a.height(), b.width(), b.height());
    if (valid) {
        EP_ASSERT(valid->width() == a.width() &&
                  valid->height() == a.height(),
                  "validity mask shape mismatch");
    }
    double sum = 0.0;
    size_t n = 0;
    for (int y = 0; y < a.height(); ++y) {
        const float *ra = a.row(y);
        const float *rb = b.row(y);
        for (int x = 0; x < a.width(); ++x) {
            if (valid && !valid->get(x, y))
                continue;
            sum += accum(ra[x], rb[x]);
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

} // anonymous namespace

double
mse(const Plane &a, const Plane &b, const Bitmap *valid)
{
    return maskedReduce(a, b, valid, [](float pa, float pb) {
        double d = static_cast<double>(pa) - static_cast<double>(pb);
        return d * d;
    });
}

double
psnr(const Plane &a, const Plane &b, const Bitmap *valid, double peak)
{
    double err = mse(a, b, valid);
    if (err <= 0.0)
        return std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(peak * peak / err);
}

double
worstBandPsnr(const Plane &a, const Plane &b, int bandRows)
{
    EP_ASSERT(bandRows > 0, "band height must be positive, not %d",
              bandRows);
    double worst = std::numeric_limits<double>::infinity();
    for (int y0 = 0; y0 < a.height(); y0 += bandRows) {
        int rows = std::min(bandRows, a.height() - y0);
        worst = std::min(worst, psnr(a.crop(0, y0, a.width(), rows),
                                     b.crop(0, y0, b.width(), rows)));
    }
    return worst;
}

double
meanAbsDiff(const Plane &a, const Plane &b, const Bitmap *valid)
{
    return maskedReduce(a, b, valid, [](float pa, float pb) {
        return std::abs(static_cast<double>(pa) - static_cast<double>(pb));
    });
}

} // namespace earthplus::raster

#include "synth/weather.hh"

#include <cmath>

#include "util/rng.hh"

namespace earthplus::synth {

namespace {

/** Mean P(clear day: coverage ~ U[0, 0.01)). */
constexpr double kPClear = 0.20;
/** Mean P(partly cloudy: coverage ~ U[0.01, 0.5)). */
constexpr double kPPartial = 0.22;
/** Remaining probability: overcast, coverage ~ U[kOvercastLo, 1). */
constexpr double kOvercastLo = 0.62;

} // anonymous namespace

WeatherProcess::WeatherProcess(const WeatherParams &params)
    : params_(params)
{
}

double
WeatherProcess::coverage(int locationId, int day) const
{
    uint64_t salt = (static_cast<uint64_t>(static_cast<uint32_t>(
                         locationId)) << 32) ^
                    static_cast<uint64_t>(static_cast<uint32_t>(day));
    Rng rng = Rng(params_.seed).fork(salt);

    // Seasonal weight: 1 at mid-summer (day ~196), 0 at mid-winter.
    // Clear days cluster in summer, overcast in winter (mid-latitude
    // climate): ~6x more clear days in summer than winter.
    double doy = std::fmod(std::fmod(static_cast<double>(day), 365.0) +
                           365.0, 365.0);
    double w = 0.5 * (1.0 + std::cos(2.0 * M_PI * (doy - 196.0) / 365.0));
    // Modulate around the mean so the yearly averages stay put.
    double pc = kPClear * (1.0 + (2.0 * w - 1.0) * 0.85);
    double pp = kPPartial * (1.0 + (2.0 * w - 1.0) * 0.5);

    double u = rng.uniform();
    if (u < pc)
        return rng.uniform(0.0, 0.01);
    if (u < pc + pp)
        return rng.uniform(0.01, 0.5);
    return rng.uniform(kOvercastLo, 1.0);
}

double
WeatherProcess::meanCoverage(int locationId, int fromDay, int toDay) const
{
    if (toDay <= fromDay)
        return 0.0;
    double sum = 0.0;
    for (int d = fromDay; d < toDay; ++d)
        sum += coverage(locationId, d);
    return sum / static_cast<double>(toDay - fromDay);
}

} // namespace earthplus::synth

/**
 * @file
 * Per-location daily cloud-coverage process.
 *
 * All satellites overflying a location on the same day see the same
 * weather (sun-synchronous constellations image a location at nearly
 * the same local time, §2.1), which is what makes constellation-wide
 * reference freshness a temporal-coverage effect rather than a lucky-
 * draw effect. Parameters are calibrated to the paper's statistics:
 * mean coverage ~2/3 ([10] in §3) and P(coverage < 1%) such that a
 * 10-day-revisit satellite sees a cloud-free image every ~50 days
 * while a daily-revisit constellation sees one every ~4-5 days (Fig 5).
 */

#ifndef EARTHPLUS_SYNTH_WEATHER_HH
#define EARTHPLUS_SYNTH_WEATHER_HH

#include <cstdint>

namespace earthplus::synth {

/** Configuration of the daily coverage process. */
struct WeatherParams
{
    /** Process seed. */
    uint64_t seed = 0x5eedc10dULL;
};

/**
 * Deterministic daily cloud coverage per location.
 */
class WeatherProcess
{
  public:
    explicit WeatherProcess(const WeatherParams &params = WeatherParams());

    /**
     * Cloud coverage fraction for the given location and (integer) day.
     * Identical for every satellite capturing that day.
     */
    double coverage(int locationId, int day) const;

    /** Mean coverage over a day range (for calibration checks). */
    double meanCoverage(int locationId, int fromDay, int toDay) const;

  private:
    WeatherParams params_;
};

} // namespace earthplus::synth

#endif // EARTHPLUS_SYNTH_WEATHER_HH

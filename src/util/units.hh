/**
 * @file
 * Unit conversions used throughout the link / storage models.
 *
 * The paper quotes link rates in kbps / Mbps, storage in GB and time in
 * minutes / days; these helpers keep those conversions explicit and
 * centralized.
 */

#ifndef EARTHPLUS_UTIL_UNITS_HH
#define EARTHPLUS_UTIL_UNITS_HH

namespace earthplus::units {

/** Bits in a megabit (decimal, link-rate convention). */
constexpr double kBitsPerMbit = 1e6;
/** Bytes in a megabyte (decimal, matches the paper's 150 MB images). */
constexpr double kBytesPerMB = 1e6;
/** Bytes in a gigabyte. */
constexpr double kBytesPerGB = 1e9;
/** Seconds in a minute. */
constexpr double kSecondsPerMinute = 60.0;
/** Minutes in a day. */
constexpr double kMinutesPerDay = 24.0 * 60.0;
/** Seconds in a day. */
constexpr double kSecondsPerDay = 86400.0;

/** Convert bytes to megabits. */
constexpr double
bytesToMbits(double bytes)
{
    return bytes * 8.0 / kBitsPerMbit;
}

/** Convert a byte count moved within a duration (seconds) to Mbps. */
constexpr double
bytesOverSecondsToMbps(double bytes, double seconds)
{
    return bytesToMbits(bytes) / seconds;
}

/** Convert bytes to decimal gigabytes. */
constexpr double
bytesToGB(double bytes)
{
    return bytes / kBytesPerGB;
}

/** Convert decimal megabytes to bytes. */
constexpr double
mbToBytes(double mb)
{
    return mb * kBytesPerMB;
}

} // namespace earthplus::units

#endif // EARTHPLUS_UTIL_UNITS_HH

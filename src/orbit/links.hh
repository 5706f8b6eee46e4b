/**
 * @file
 * Uplink / downlink budget models.
 *
 * The paper models links analytically (§6.1): the uplink is a constant
 * 250 kbps S-band channel (weather-insensitive), the downlink a
 * 200 Mbps X-band channel, both usable during 10-minute ground
 * contacts, 7 contacts per day.
 */

#ifndef EARTHPLUS_ORBIT_LINKS_HH
#define EARTHPLUS_ORBIT_LINKS_HH

#include <cstddef>

namespace earthplus::orbit {

/** Static description of one link direction. */
struct LinkSpec
{
    /** Link rate in bits per second. */
    double bitsPerSecond = 0.0;
    /** Usable seconds per ground contact. */
    double contactSeconds = 600.0;
    /** Ground contacts per day. */
    int contactsPerDay = 7;
};

/**
 * Byte budgets derived from a LinkSpec.
 */
class LinkBudget
{
  public:
    explicit LinkBudget(const LinkSpec &spec);

    /** Bytes transferable during one contact. */
    double bytesPerContact() const;

    /** Bytes transferable per day across all contacts. */
    double bytesPerDay() const;

    const LinkSpec &spec() const { return spec_; }

  private:
    LinkSpec spec_;
};

/**
 * A consumable per-day byte allowance (used by the uplink planner to
 * decide which reference updates fit, §5 "Handling bandwidth
 * fluctuation").
 */
class DailyByteBudget
{
  public:
    /** @param bytesPerDay Renewable daily allowance. */
    explicit DailyByteBudget(double bytesPerDay);

    /** Start a new day: unused allowance does not roll over. */
    void startDay();

    /** Try to consume `bytes`; returns false (no change) if short. */
    bool tryConsume(double bytes);

    /** Remaining bytes today. */
    double remaining() const { return remaining_; }

    /** Daily allowance. */
    double allowance() const { return allowance_; }

  private:
    double allowance_;
    double remaining_;
};

} // namespace earthplus::orbit

#endif // EARTHPLUS_ORBIT_LINKS_HH

#include "orbit/links.hh"

#include "util/logging.hh"

namespace earthplus::orbit {

LinkBudget::LinkBudget(const LinkSpec &spec)
    : spec_(spec)
{
    EP_ASSERT(spec.bitsPerSecond >= 0.0, "negative link rate");
    EP_ASSERT(spec.contactSeconds > 0.0, "non-positive contact duration");
    EP_ASSERT(spec.contactsPerDay >= 1, "need at least one contact/day");
}

double
LinkBudget::bytesPerContact() const
{
    return spec_.bitsPerSecond * spec_.contactSeconds / 8.0;
}

double
LinkBudget::bytesPerDay() const
{
    return bytesPerContact() * spec_.contactsPerDay;
}

DailyByteBudget::DailyByteBudget(double bytesPerDay)
    : allowance_(bytesPerDay), remaining_(bytesPerDay)
{
    EP_ASSERT(bytesPerDay >= 0.0, "negative byte budget");
}

void
DailyByteBudget::startDay()
{
    remaining_ = allowance_;
}

bool
DailyByteBudget::tryConsume(double bytes)
{
    if (bytes > remaining_)
        return false;
    remaining_ -= bytes;
    return true;
}

} // namespace earthplus::orbit

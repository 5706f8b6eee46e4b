#include "orbit/contact.hh"

#include <cmath>

#include "util/logging.hh"

namespace earthplus::orbit {

ContactSchedule::ContactSchedule(int contactsPerDay)
    : contactsPerDay_(contactsPerDay)
{
    EP_ASSERT(contactsPerDay >= 1, "need at least one contact per day");
    intervalDays_ = 1.0 / static_cast<double>(contactsPerDay);
}

double
ContactSchedule::nextContactAtOrAfter(double day) const
{
    double k = std::ceil(day / intervalDays_ - 1e-12);
    return k * intervalDays_;
}

} // namespace earthplus::orbit

/**
 * @file
 * Ground-contact scheduling.
 *
 * A LEO satellite sees a ground station for ~10 minutes, ~7 times per
 * day (§6.1). Contacts gate when reference images can be uplinked and
 * when encoded changes come down: a reference uploaded at contact k is
 * usable for captures after k; captures are downloaded at the next
 * contact after the capture.
 */

#ifndef EARTHPLUS_ORBIT_CONTACT_HH
#define EARTHPLUS_ORBIT_CONTACT_HH

namespace earthplus::orbit {

/**
 * Evenly spaced daily contact windows for one satellite, the first at
 * the start of each day.
 */
class ContactSchedule
{
  public:
    /** @param contactsPerDay Contacts per day (> 0). */
    explicit ContactSchedule(int contactsPerDay);

    /** Time (days) of the first contact at or after `day`. */
    double nextContactAtOrAfter(double day) const;

    /** Contacts per day. */
    int contactsPerDay() const { return contactsPerDay_; }

  private:
    int contactsPerDay_;
    double intervalDays_;
};

} // namespace earthplus::orbit

#endif // EARTHPLUS_ORBIT_CONTACT_HH

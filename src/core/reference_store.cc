#include "core/reference_store.hh"

#include "util/logging.hh"

namespace earthplus::core {

ReferenceStore::ReferenceStore(double cloudThreshold)
    : cloudThreshold_(cloudThreshold)
{
    EP_ASSERT(cloudThreshold >= 0.0 && cloudThreshold <= 1.0,
              "cloud threshold %f out of range", cloudThreshold);
}

bool
ReferenceStore::offer(const raster::Image &img, double cloudFraction)
{
    if (cloudFraction > cloudThreshold_)
        return false;
    int loc = img.info().locationId;
    auto it = refs_.find(loc);
    if (it != refs_.end() &&
        it->second.info().captureDay >= img.info().captureDay)
        return false;
    refs_[loc] = img;
    return true;
}

bool
ReferenceStore::has(int locationId) const
{
    return refs_.count(locationId) != 0;
}

const raster::Image &
ReferenceStore::reference(int locationId) const
{
    auto it = refs_.find(locationId);
    EP_ASSERT(it != refs_.end(), "no reference for location %d",
              locationId);
    return it->second;
}

double
ReferenceStore::referenceDay(int locationId) const
{
    return reference(locationId).info().captureDay;
}

} // namespace earthplus::core

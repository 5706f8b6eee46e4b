/**
 * @file
 * Ground-side reference image store.
 *
 * The ground stations see every image downloaded by every satellite in
 * the constellation; the store keeps, per location, the freshest image
 * whose (accurately re-detected) cloud coverage is below the threshold
 * (§4.2). That image is what gets uplinked as the next reference and
 * what the ground uses to fill unchanged tiles during reconstruction.
 */

#ifndef EARTHPLUS_CORE_REFERENCE_STORE_HH
#define EARTHPLUS_CORE_REFERENCE_STORE_HH

#include <map>

#include "raster/image.hh"

namespace earthplus::core {

/**
 * Latest cloud-free downloaded image per location.
 */
class ReferenceStore
{
  public:
    /**
     * @param cloudThreshold Acceptance threshold for new references
     *        (paper uses < 1% cloud coverage).
     */
    explicit ReferenceStore(double cloudThreshold = 0.01);

    /**
     * Offer a downloaded (reconstructed) image as a reference
     * candidate.
     *
     * @param img Ground reconstruction of the download.
     * @param cloudFraction Cloud coverage as re-detected on the ground.
     * @return True when accepted (fresher than the current reference
     *         and cloud-free enough).
     */
    bool offer(const raster::Image &img, double cloudFraction);

    /** True when a reference exists for the location. */
    bool has(int locationId) const;

    /** Current reference image (must exist). */
    const raster::Image &reference(int locationId) const;

    /** Capture day of the current reference (must exist). */
    double referenceDay(int locationId) const;

    /** Number of locations with references. */
    size_t size() const { return refs_.size(); }

  private:
    double cloudThreshold_;
    std::map<int, raster::Image> refs_;
};

} // namespace earthplus::core

#endif // EARTHPLUS_CORE_REFERENCE_STORE_HH

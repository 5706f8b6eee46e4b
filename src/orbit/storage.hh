/**
 * @file
 * On-board storage model (paper Appendix A / Fig. 15).
 *
 * The model follows the appendix's accounting:
 *
 *  - Captured imagery is kept for two consecutive ground contacts
 *    (re-transmission insurance [14]); storing 1 km^2 costs ~0.87 MB.
 *  - Earth+/SatRoI store only what they will download (encoded
 *    changed/non-cloudy areas); Kodan must buffer everything it
 *    captures between contacts, which is ~8x what the downlink can
 *    carry (only ~12% of captured data is downloadable, §2.2 fn. 3).
 *  - Earth+ additionally caches downsampled reference images for every
 *    location it will visit (at most 160a km^2 at 2601x compression),
 *    a ~9% overhead the savings from change-only storage easily cover.
 */

#ifndef EARTHPLUS_ORBIT_STORAGE_HH
#define EARTHPLUS_ORBIT_STORAGE_HH

namespace earthplus::orbit {

/** Storage bytes split by purpose (Fig. 15's two bar segments). */
struct StorageBreakdown
{
    /** Bytes for captured/encoded imagery awaiting download. */
    double capturedBytes = 0.0;
    /** Bytes for cached reference images. */
    double referenceBytes = 0.0;

    double totalBytes() const { return capturedBytes + referenceBytes; }
};

/**
 * Evaluates the appendix model for each compression scheme.
 */
class StorageModel
{
  public:
    /** Megabytes to store 1 km^2 of imagery (Appendix A). */
    static constexpr double kMbPerKm2 = 0.87;
    /** Area downloadable during one ground contact (km^2). */
    static constexpr double kAreaPerContactKm2 = 17000.0;
    /** Contacts of captured data kept on board. */
    static constexpr int kContactsKept = 2;
    /** Reference area cached relative to a (Appendix A: 160a). */
    static constexpr double kReferenceAreaFactor = 160.0;
    /** Compression ratio of cached reference images (51^2 = 2601). */
    static constexpr double kReferenceCompression = 2601.0;
    /**
     * Ratio of captured to downloadable data for schemes that must
     * buffer all captures (Kodan): ~1/0.12 (§2.2 footnote 3).
     */
    static constexpr double kCaptureToDownloadRatio = 8.3;

    /**
     * Earth+: stores only changed tiles plus the downsampled reference
     * cache.
     *
     * @param meanDownloadedFraction Average fraction of tiles Earth+
     *        downloads (measured ~0.2-0.3 including guaranteed
     *        downloads).
     */
    StorageBreakdown earthPlus(double meanDownloadedFraction) const;

    /**
     * SatRoI: stores what it downloads (nearly everything, since its
     * fixed reference ages) plus one full-resolution reference.
     *
     * @param meanDownloadedFraction Average downloaded-tile fraction
     *        (close to 1 in practice).
     */
    StorageBreakdown satRoI(double meanDownloadedFraction) const;

    /** Kodan: buffers all captures between contacts, no references. */
    StorageBreakdown kodan() const;
};

} // namespace earthplus::orbit

#endif // EARTHPLUS_ORBIT_STORAGE_HH

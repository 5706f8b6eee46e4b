#include "orbit/storage.hh"

#include "util/logging.hh"
#include "util/units.hh"

namespace earthplus::orbit {

StorageBreakdown
StorageModel::earthPlus(double meanDownloadedFraction) const
{
    EP_ASSERT(meanDownloadedFraction >= 0.0 &&
              meanDownloadedFraction <= 1.0,
              "downloaded fraction %f out of range",
              meanDownloadedFraction);
    StorageBreakdown b;
    double capturedMB = kContactsKept * kMbPerKm2 * kAreaPerContactKm2 *
                        meanDownloadedFraction;
    double referenceMB = kReferenceAreaFactor * kAreaPerContactKm2 *
                         kMbPerKm2 / kReferenceCompression;
    b.capturedBytes = units::mbToBytes(capturedMB);
    b.referenceBytes = units::mbToBytes(referenceMB);
    return b;
}

StorageBreakdown
StorageModel::satRoI(double meanDownloadedFraction) const
{
    EP_ASSERT(meanDownloadedFraction >= 0.0 &&
              meanDownloadedFraction <= 1.0,
              "downloaded fraction %f out of range",
              meanDownloadedFraction);
    StorageBreakdown b;
    double capturedMB = kContactsKept * kMbPerKm2 * kAreaPerContactKm2 *
                        meanDownloadedFraction;
    // One full-resolution reference image region kept on board.
    double referenceMB = kAreaPerContactKm2 * kMbPerKm2 * 0.1;
    b.capturedBytes = units::mbToBytes(capturedMB);
    b.referenceBytes = units::mbToBytes(referenceMB);
    return b;
}

StorageBreakdown
StorageModel::kodan() const
{
    StorageBreakdown b;
    double capturedMB = kContactsKept * kMbPerKm2 * kAreaPerContactKm2 *
                        kCaptureToDownloadRatio;
    b.capturedBytes = units::mbToBytes(capturedMB);
    b.referenceBytes = 0.0;
    return b;
}

} // namespace earthplus::orbit

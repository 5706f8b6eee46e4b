/**
 * @file
 * The two cloud detectors of the paper.
 *
 * Earth+ splits cloud detection asymmetrically (§4.3, §5):
 *
 *  - On board, a cheap decision tree flags only easy, heavy clouds.
 *    Missing a cloud is tolerable (the tile is downloaded as changed);
 *    a false positive is harmful (real changes get discarded), so the
 *    tree is tuned for >99% precision at modest recall, and it runs on
 *    a downsampled capture because only tile-level decisions are
 *    needed.
 *
 *  - On the ground (and on board for the Kodan baseline), an accurate
 *    but compute-heavy multi-layer convolutional detector finds thin
 *    clouds too, and gates which reference images are uploaded.
 */

#ifndef EARTHPLUS_CLOUD_DETECTOR_HH
#define EARTHPLUS_CLOUD_DETECTOR_HH

#include <vector>

#include "cloud/features.hh"
#include "raster/bitmap.hh"
#include "raster/image.hh"
#include "raster/tile.hh"
#include "synth/bands.hh"

namespace earthplus::cloud {

/** Result of running a detector on one capture. */
struct CloudDetection
{
    /** Per-pixel cloud mask (full capture resolution). */
    raster::Bitmap pixelMask;
    /** Tiles whose cloud fraction exceeds the detector's threshold. */
    raster::TileMask tileMask;
    /** Fraction of pixels flagged cloudy. */
    double coverage = 0.0;
};

/**
 * Cheap on-board detector: a fixed decision tree on brightness and the
 * visible/IR ratio, evaluated on a downsampled capture.
 */
class CheapCloudDetector
{
  public:
    /** Minimum brightness of a cloud core. */
    static constexpr double kMinVisible = 0.55;
    /** Minimum visible/IR ratio (clouds are cold: high ratio). */
    static constexpr double kMinRatio = 3.2;
    /**
     * Second branch for moderate clouds: brighter pixels qualify at a
     * lower ratio (still above snow's ~2.3).
     */
    static constexpr double kMidVisible = 0.70;
    static constexpr double kMidRatio = 2.6;
    /** Brightness that is cloud regardless of ratio (no-IR mode). */
    static constexpr double kMinVisibleNoIr = 0.80;
    /** Analysis downsampling factor (paper uses tile-level 64x). */
    static constexpr int kAnalysisFactor = 8;
    /** Tile flagged cloudy above this cloud fraction. */
    static constexpr double kTileCloudFraction = 0.5;

    /**
     * Run detection.
     *
     * @param img The capture.
     * @param bands Band specs describing the capture's bands.
     * @param grid Tile grid of the capture.
     */
    CloudDetection detect(const raster::Image &img,
                          const std::vector<synth::BandSpec> &bands,
                          const raster::TileGrid &grid) const;
};

/**
 * Accurate detector: a stack of convolution + nonlinearity layers over
 * brightness/IR/texture features, thresholded into a mask. Finds thin
 * cloud edges the decision tree misses; costs an order of magnitude
 * more compute (which Fig. 16 measures).
 */
class AccurateCloudDetector
{
  public:
    /** Number of convolution layers ("tens of layers", §4.3). */
    static constexpr int kConvLayers = 12;
    /** Blur radius per layer. */
    static constexpr int kKernelRadius = 2;
    /** Opacity-score threshold for the final mask. */
    static constexpr double kScoreThreshold = 0.12;
    /** Texture veto: local stddev above this is terrain, not cloud. */
    static constexpr double kTextureVeto = 0.035;
    /** Tile flagged cloudy above this cloud fraction. */
    static constexpr double kTileCloudFraction = 0.4;

    /** Run detection (see CheapCloudDetector::detect). */
    CloudDetection detect(const raster::Image &img,
                          const std::vector<synth::BandSpec> &bands,
                          const raster::TileGrid &grid) const;
};

/**
 * Precision/recall of a detection against a ground-truth mask
 * (both per-pixel).
 */
struct DetectionQuality
{
    double precision = 1.0;
    double recall = 0.0;
};

/** Score a pixel mask against ground truth. */
DetectionQuality scoreDetection(const raster::Bitmap &detected,
                                const raster::Bitmap &truth);

} // namespace earthplus::cloud

#endif // EARTHPLUS_CLOUD_DETECTOR_HH

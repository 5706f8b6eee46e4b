/**
 * @file
 * The shipping ingest path: synthetic Sentinel-like captures through
 * on-board Earth+, the lossy ARQ downlink and the on-disk sharded
 * archive, driven by the same public calls in the same order as
 * core::LocationSimulation::run.
 */

#ifndef PERFBENCH_INGEST_HH
#define PERFBENCH_INGEST_HH

#include <memory>
#include <string>

#include "bench.hh"
#include "ground/station.hh"
#include "synth/dataset.hh"

namespace perfbench {

/**
 * Sentinel-like dataset: the first `sizes.locations` rich-content
 * locations, RGB + one SWIR band, `days` days from `startDay`, square
 * captures of `sizes.imageSize`. This is the fixed world of every run:
 * scenes, their change events and the daily weather do not depend on
 * the run's seed (IngestPipeline draws the sensor from it).
 */
earthplus::synth::DatasetSpec benchDataset(const Sizes &sizes, double startDay,
                                           double days);

/**
 * Ground segment of every workload: 7 contacts a day, 5% Bernoulli
 * packet loss seeded from `seed`, 1 KiB packets, and a contact byte
 * budget of 48 KiB per 512x512 of image area, so a full download
 * needs several contacts and ARQ retransmits span contacts. Retention
 * is long enough that no capture is lost. The archive uses the
 * station's default SyncPolicy::None.
 */
earthplus::ground::GroundSegmentParams benchGround(uint64_t seed,
                                                   const Sizes &sizes,
                                                   const std::string &dir);

/** What one ingest run did. */
struct IngestResult
{
    int iterations = 0; ///< Timed-loop iterations (captures seen).
    int dropped = 0;    ///< Captures dropped on board as cloudy.
    int submitted = 0;  ///< Captures queued on the downlink.
    int fullDownloads = 0;
    /** Wall time of every iteration (ms). */
    Samples iterationMs;
    /** Wall time of iterations whose capture was downloaded (ms). */
    Samples downloadMs;
    /** Summed timed-loop time, final downlink flush included (s). */
    double loopSec = 0.0;
    double downlinkBytes = 0.0; ///< Sum over downloaded captures.
    double psnrSum = 0.0;       ///< Sum over downloaded captures.
    double uplinkBytes = 0.0;   ///< Sum of UplinkPlan::bytes.
    double tileFracSum = 0.0;   ///< Sum of downloadedTileFraction.
    double refAgeSum = 0.0;     ///< Sum of finite reference ages.
    int refAgeCount = 0;
    earthplus::ground::StationStats station;
    /** Records the station appended (bands of completed captures). */
    uint64_t recordsAppended = 0;
    uint64_t archiveFileBytes = 0;

    double meanDownlinkBytes() const
    {
        return submitted ? downlinkBytes / submitted : 0.0;
    }
    double meanPsnr() const { return submitted ? psnrSum / submitted : 0.0; }
};

/**
 * One ingest run over `spec`. Construction is the set-up: scenes,
 * weather, on-board systems, the capture schedule, and a GroundStation
 * whose fresh archive lives in the ground params' directory. run() is
 * the timed part: captures are rendered in batches across the pool
 * with the clock stopped, and each timed iteration is advanceTo,
 * prepareCapture, process, serialize and submit. Per-call wall times
 * land in `layers`; with `trace` non-null the render spans are
 * discarded and the rest collected batch by batch.
 */
class IngestPipeline
{
  public:
    /**
     * @param sensorSeed Seed of the capture simulator: cloud-field
     *        shapes, illumination and sensor noise of every capture.
     */
    IngestPipeline(const earthplus::synth::DatasetSpec &spec,
                   const earthplus::ground::GroundSegmentParams &ground,
                   uint64_t sensorSeed);
    ~IngestPipeline();

    IngestPipeline(const IngestPipeline &) = delete;
    IngestPipeline &operator=(const IngestPipeline &) = delete;

    /** Run every scheduled capture and flush the downlink (once). */
    IngestResult run(Layers &layers, TraceCollector *trace);

  private:
    struct State;
    std::unique_ptr<State> s_;
};

/** Digest of every record (metadata and payload) in archive order. */
uint64_t archiveDigest(const earthplus::ground::Archive &archive);

/** Remove a directory tree (no-op when absent). */
void removeTree(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_INGEST_HH

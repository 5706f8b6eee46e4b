/**
 * @file
 * End-to-end simulation of one location under one compression system.
 *
 * Drives the full loop of Fig. 7(b): for every scheduled capture of a
 * location by any satellite of the constellation — uplink reference
 * update (Earth+ only, within the daily uplink budget) -> capture ->
 * on-board processing -> downlink -> ground reconstruction ->
 * reference-store refresh — and aggregates the per-capture metrics the
 * paper's evaluation reports.
 */

#ifndef EARTHPLUS_CORE_SIMULATION_HH
#define EARTHPLUS_CORE_SIMULATION_HH

#include <memory>
#include <vector>

#include "core/systems.hh"
#include "ground/station.hh"
#include "synth/dataset.hh"
#include "synth/scene.hh"
#include "synth/sensor.hh"
#include "synth/weather.hh"

namespace earthplus::core {

/** Which system a simulation runs. */
enum class SystemKind
{
    EarthPlus,
    Kodan,
    SatRoI,
    DownloadAll,
};

/** Display name of a system kind. */
const char *systemName(SystemKind kind);

/** Simulation configuration. */
struct SimParams
{
    /** Shared on-board system parameters. */
    SystemParams system;
    /** Earth+ uplink planning parameters. */
    UplinkPlanner::Params uplink;
    /**
     * Daily uplink byte allowance available for this location's
     * reference updates (the per-location share of the 250 kbps
     * uplink). Large by default; Fig. 18 sweeps it.
     */
    double uplinkBytesPerDay = 1e12;
    /** Cap on captures processed (0 = all) for quick runs. */
    int maxCaptures = 0;
    /**
     * Ground segment configuration. When enabled, downloads no longer
     * teleport into the ReferenceStore at capture time: every encoded
     * band is serialized, packetized and transmitted across lossy
     * ground contacts (with ARQ retransmission), archived on
     * completion, and only then offered as a reference.
     */
    ground::GroundSegmentParams groundSegment;
};

/** Metrics of one processed capture. */
struct CaptureMetrics
{
    double day = 0.0;           ///< Capture day.
    int satelliteId = 0;        ///< Capturing satellite.
    bool dropped = false;       ///< Fully cloudy: nothing downloaded.
    bool fullDownload = false;  ///< Guaranteed periodic full download.
    size_t downlinkBytes = 0;   ///< Bytes sent to the ground.
    double downloadedTileFraction = 0.0; ///< Tiles downloaded / total.
    double psnr = 0.0;          ///< Reconstruction PSNR (dB).
    double referenceAgeDays = 0.0; ///< Age of the reference used.
    double uplinkBytes = 0.0;   ///< Reference-update uplink cost.
    double cloudDetectSec = 0.0;  ///< Cloud-detection runtime (s).
    double changeDetectSec = 0.0; ///< Change-detection runtime (s).
    double encodeSec = 0.0;       ///< Encoding runtime (s).
};

/** Aggregated results of one simulation run. */
struct SimSummary
{
    /** Per-capture metrics, capture order. */
    std::vector<CaptureMetrics> captures;
    /** Downlink bytes summed over every capture. */
    double totalDownlinkBytes = 0.0;
    /** Uplink bytes summed over every capture. */
    double totalUplinkBytes = 0.0;
    /** Total downlink bytes per band (empty until the first capture). */
    std::vector<double> bandDownlinkBytes;
    /** Mean PSNR over processed (non-dropped) captures. */
    double meanPsnr = 0.0;
    /** Mean downloaded-tile fraction over processed captures. */
    double meanDownloadedFraction = 0.0;
    /** Mean reference age over captures that had a reference. */
    double meanReferenceAgeDays = 0.0;
    int processedCount = 0;    ///< Captures processed (downloaded).
    int droppedCount = 0;      ///< Captures dropped as fully cloudy.
    int fullDownloadCount = 0; ///< Guaranteed full downloads.
    /** Captures processed while holding a (finite-age) reference. */
    int referencedCount = 0;
    /** True when the run routed downloads through the ground segment. */
    bool groundEnabled = false;
    /** Ground-segment statistics (valid when groundEnabled). */
    ground::StationStats groundStats;

    /**
     * Downlink rate (Mbps) needed to stream the mean per-capture
     * payload within one ground contact, scaled from the synthetic
     * image size to a real image size.
     *
     * @param contactSeconds Ground contact duration.
     * @param scaleToRealBytes Ratio real-image-bytes /
     *        synthetic-image-bytes (1 = report raw synthetic rate).
     */
    double requiredDownlinkMbps(double contactSeconds,
                                double scaleToRealBytes = 1.0) const;
};

/**
 * Simulates one location of a dataset under one system.
 */
class LocationSimulation
{
  public:
    /**
     * @param spec Dataset description.
     * @param locationIdx Index into spec.locations.
     * @param kind System to run.
     * @param params Simulation parameters.
     */
    LocationSimulation(const synth::DatasetSpec &spec, int locationIdx,
                       SystemKind kind, const SimParams &params);

    /** Out-of-line: members are incomplete types in the header. */
    ~LocationSimulation();

    /** Run the full capture schedule and aggregate metrics. */
    SimSummary run();

    /** The scene backing this simulation. */
    const synth::SceneModel &scene() const { return *scene_; }

    /** The system under simulation. */
    OnboardSystem &system() { return *system_; }

    /**
     * The ground station routing this simulation's downloads (null
     * unless SimParams::groundSegment.enabled).
     */
    ground::GroundStation *groundStation() { return station_.get(); }

  private:
    synth::DatasetSpec spec_;
    int locationIdx_;
    SystemKind kind_;
    SimParams params_;
    std::unique_ptr<synth::SceneModel> scene_;
    std::unique_ptr<synth::WeatherProcess> weather_;
    std::unique_ptr<synth::CaptureSimulator> captureSim_;
    std::unique_ptr<ReferenceStore> ground_;
    std::unique_ptr<ground::GroundStation> station_;
    std::unique_ptr<OnboardSystem> system_;
    EarthPlusSystem *earthPlus_ = nullptr; // non-owning view when kind matches
};

/** One (location, system) simulation of a constellation batch. */
struct BatchSimJob
{
    synth::DatasetSpec spec;  ///< Dataset the location belongs to.
    int locationIdx = 0;      ///< Index into spec.locations.
    SystemKind kind = SystemKind::EarthPlus; ///< System to run.
    SimParams params;         ///< Simulation parameters.
};

/**
 * Run a batch of independent simulations, fanned across the global
 * thread pool (one job per (location, system) pair; each holds its own
 * scene, weather, ground store and on-board system, so jobs share no
 * mutable state). Results are returned in job order. A job's nested
 * tile/band parallelism runs inline on its worker (never re-enters
 * the pool), so speedup is bounded by min(jobs, pool size): batches
 * with at least as many jobs as threads scale with the pool, while a
 * small batch on a large pool leaves the extra lanes idle. This is
 * the entry point bench_fig16_runtime and bench_fig19_more_satellites
 * use to report wall-clock speedup vs. thread count
 * (EARTHPLUS_THREADS).
 */
std::vector<SimSummary>
runSimulationsBatch(const std::vector<BatchSimJob> &jobs);

} // namespace earthplus::core

#endif // EARTHPLUS_CORE_SIMULATION_HH

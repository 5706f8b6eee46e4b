/**
 * @file
 * On-board compression systems: Earth+ and the paper's baselines.
 *
 *  - EarthPlusSystem: cheap cloud removal -> drop if >50% cloudy ->
 *    illumination alignment -> change detection against the cached
 *    (downsampled, constellation-fresh) reference -> ROI encoding of
 *    changed tiles at a constant per-tile bit budget gamma -> monthly
 *    guaranteed full download (§5).
 *  - KodanSystem [37]: accurate (expensive) on-board cloud detection,
 *    downloads every non-cloudy tile.
 *  - SatRoISystem [61]: reference-based encoding against a fixed
 *    reference image that is never refreshed.
 *  - DownloadAllSystem: encodes everything (the "Download everything"
 *    bar of Fig. 19).
 *
 * All systems share the same codec and the same gamma so comparisons
 * isolate the *selection* policy, exactly as in the paper (§6.1).
 */

#ifndef EARTHPLUS_CORE_SYSTEMS_HH
#define EARTHPLUS_CORE_SYSTEMS_HH

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cloud/detector.hh"
#include "codec/codec.hh"
#include "core/onboard_cache.hh"
#include "core/reference_store.hh"
#include "core/uplink_planner.hh"
#include "orbit/links.hh"
#include "synth/sensor.hh"

namespace earthplus::core {

/** Parameters shared by every on-board system. */
struct SystemParams
{
    /** Bits per pixel spent on each encoded tile (the paper's gamma). */
    double gamma = 2.0;
    /** Change-detection threshold theta (mean abs diff). */
    double theta = 0.01;
    /** Reference downsampling factor (Earth+ only). */
    int refDownsample = 16;
    /** Tile edge length in pixels. */
    int tileSize = raster::kDefaultTileSize;
    /** Guaranteed full download period in days (§5). */
    double guaranteedPeriodDays = 30.0;
    /** Drop captures with more on-board-detected cloud than this. */
    double dropCloudFraction = 0.5;
    /**
     * Ground ingestion happens outside the system (the ground-segment
     * downlink feeds the ReferenceStore when a download *completes*
     * rather than at capture time). When set, EarthPlusSystem does not
     * offer reconstructions to the store itself.
     */
    bool externalGroundIngest = false;
};

/** Everything a system reports about processing one capture. */
struct ProcessResult
{
    /** Capture dropped (cloud coverage above the drop threshold). */
    bool dropped = false;
    /** This was a guaranteed (or bootstrap) full download. */
    bool fullDownload = false;
    /** Bytes the downlink must carry for this capture. */
    size_t downlinkBytes = 0;
    /** Downlink bytes attributed to each band (sums to downlinkBytes). */
    std::vector<size_t> bandDownlinkBytes;
    /** Fraction of tiles downloaded. */
    double downloadedTileFraction = 0.0;
    /** Ground-reconstruction PSNR (dB) over non-cloudy pixels. */
    double psnr = 0.0;
    /** Age of the reference used (days; +inf when none). */
    double referenceAgeDays = 0.0;
    /** Cloud coverage as measured on board. */
    double measuredCloudCoverage = 0.0;
    double cloudDetectSec = 0.0;  ///< Cloud-detection runtime (s).
    double changeDetectSec = 0.0; ///< Change-detection runtime (s).
    double encodeSec = 0.0;       ///< Encoding runtime (s).
    /**
     * The encoded downlink payload, one stream per band (what the
     * ground segment packetizes and archives). Empty when dropped.
     */
    std::vector<codec::EncodedImage> encodedBands;
    /**
     * Ground-side reconstruction (empty when dropped): each band's
     * decoded ROI tiles over the system's fill. Built from the
     * encoder's own coefficient state, bit-identical to decoding
     * `encodedBands` (docs/ARCHITECTURE.md).
     */
    raster::Image reconstructed;
};

/**
 * Common interface of all on-board systems.
 */
class OnboardSystem
{
  public:
    virtual ~OnboardSystem() = default;

    /** Process one capture and produce the download + reconstruction. */
    virtual ProcessResult process(const synth::Capture &capture) = 0;

    /** Human-readable system name. */
    virtual const char *name() const = 0;
};

/**
 * Earth+ — constellation-wide reference-based encoding.
 */
class EarthPlusSystem : public OnboardSystem
{
  public:
    /**
     * @param bands Band specs of the captures this system will see.
     * @param params Shared system parameters.
     * @param uplinkParams Reference-update parameters.
     * @param ground Ground reference store (shared with the simulation).
     */
    EarthPlusSystem(std::vector<synth::BandSpec> bands,
                    const SystemParams &params,
                    const UplinkPlanner::Params &uplinkParams,
                    ReferenceStore &ground);

    /**
     * Run the uplink planner for one satellite before its capture:
     * updates that satellite's on-board cache (and the ground's mirror
     * of it) within the budget.
     *
     * @return The executed plan (bytes consumed, tiles updated).
     */
    UplinkPlan prepareCapture(int locationId, int satelliteId,
                              orbit::DailyByteBudget &budget);

    ProcessResult process(const synth::Capture &capture) override;

    const char *name() const override { return "Earth+"; }

    /** On-board cache of one satellite (created on demand). */
    OnboardCache &cacheFor(int satelliteId);

    /**
     * The ground's full-resolution mirror of one satellite's cached
     * reference for one location — the fill process() pastes decoded
     * tiles over — or null when the satellite holds none.
     */
    const raster::Image *groundMirror(int satelliteId,
                                      int locationId) const;

  private:
    std::vector<synth::BandSpec> bands_;
    SystemParams params_;
    UplinkPlanner planner_;
    ReferenceStore &ground_;
    cloud::CheapCloudDetector cloudDetector_;
    std::map<int, OnboardCache> caches_;
    /** Full-res ground mirror of each (satellite, location) cache. */
    std::map<std::pair<int, int>, raster::Image> groundMirror_;
    /** Last guaranteed-download day per location. */
    std::map<int, double> lastFullDownload_;
};

/**
 * Kodan — accurate on-board cloud filtering, downloads all non-cloudy
 * tiles.
 */
class KodanSystem : public OnboardSystem
{
  public:
    KodanSystem(std::vector<synth::BandSpec> bands,
                const SystemParams &params);

    ProcessResult process(const synth::Capture &capture) override;

    const char *name() const override { return "Kodan"; }

  private:
    std::vector<synth::BandSpec> bands_;
    SystemParams params_;
    cloud::AccurateCloudDetector cloudDetector_;
};

/**
 * SatRoI — reference-based encoding with a fixed (never-refreshed)
 * full-resolution reference.
 */
class SatRoISystem : public OnboardSystem
{
  public:
    SatRoISystem(std::vector<synth::BandSpec> bands,
                 const SystemParams &params);

    ProcessResult process(const synth::Capture &capture) override;

    const char *name() const override { return "SatRoI"; }

    /**
     * The frozen reference of one location — the fill process() pastes
     * decoded tiles over — or null before the first good full download.
     */
    const raster::Image *fixedReference(int locationId) const;

  private:
    std::vector<synth::BandSpec> bands_;
    SystemParams params_;
    cloud::CheapCloudDetector cloudDetector_;
    /** The fixed reference (set once per location, then frozen). */
    std::map<int, raster::Image> fixedRef_;
    std::map<int, double> lastFullDownload_;
};

/**
 * Download-everything — no filtering, every tile encoded at gamma.
 */
class DownloadAllSystem : public OnboardSystem
{
  public:
    DownloadAllSystem(std::vector<synth::BandSpec> bands,
                      const SystemParams &params);

    ProcessResult process(const synth::Capture &capture) override;

    const char *name() const override { return "DownloadAll"; }

  private:
    std::vector<synth::BandSpec> bands_;
    SystemParams params_;
};

} // namespace earthplus::core

#endif // EARTHPLUS_CORE_SYSTEMS_HH

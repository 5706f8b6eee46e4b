/**
 * @file
 * On-board compression systems: Earth+ and the paper's baselines.
 *
 * Every system runs the one capture path, OnboardSystem::process():
 * cloud screen -> drop if more than half the capture is cloudy ->
 * tile selection -> ROI encoding of the selected tiles at a constant
 * per-tile bit budget gamma -> ground reconstruction -> PSNR ->
 * guaranteed-download bookkeeping. All systems share the same codec
 * and the same gamma, so they differ only in their policy — which
 * cloud detector runs and which tiles are downloaded — exactly as in
 * the paper's comparison (§6.1):
 *
 *  - EarthPlusSystem: cheap cloud screen; tiles that changed (after
 *    illumination alignment) against the satellite's cached low-res
 *    (`refDownsample`), constellation-fresh reference, with a
 *    guaranteed full download every `guaranteedPeriodDays` (§5).
 *  - KodanSystem [37]: accurate (expensive) cloud screen; every clear
 *    tile.
 *  - SatRoISystem [61]: cheap cloud screen; changed tiles against a
 *    fixed full-resolution reference that is never refreshed.
 *  - DownloadAllSystem: no screen; every tile (the "Download
 *    everything" bar of Fig. 19).
 */

#ifndef EARTHPLUS_CORE_SYSTEMS_HH
#define EARTHPLUS_CORE_SYSTEMS_HH

#include <functional>
#include <map>
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
    /**
     * Reference downsampling factor (Earth+ only): the geometry of
     * every on-board cache, which the uplink planner reads too.
     */
    int refDownsample = 16;
    /** Tile edge length in pixels. */
    int tileSize = raster::kDefaultTileSize;
    /** Guaranteed full download period in days (§5). */
    double guaranteedPeriodDays = 30.0;
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
 * Common base of all on-board systems. process() is the one capture
 * path (see the file comment); a system supplies only its policy: the
 * cloud screen it runs and the rule that selects the tiles it downloads.
 */
class OnboardSystem
{
  public:
    virtual ~OnboardSystem() = default;

    /** Process one capture and produce the download + reconstruction. */
    ProcessResult process(const synth::Capture &capture);

    /** Human-readable system name. */
    virtual const char *name() const = 0;

  protected:
    /** On-board cloud detection; empty for a system that screens none. */
    using CloudScreen = std::function<cloud::CloudDetection(
        const raster::Image &, const std::vector<synth::BandSpec> &,
        const raster::TileGrid &)>;

    /** Which tiles of a kept capture a system downloads. */
    enum class Selection
    {
        Everything,   ///< Every tile; each capture is a full download.
        ClearTiles,   ///< Every tile the cloud screen left clear.
        /**
         * Clear tiles that changed against reference(); every clear
         * tile while there is none or a guaranteed download is due.
         */
        ChangedTiles,
    };

    /** What a ChangedTiles system compares a capture against. */
    struct Reference
    {
        const raster::Image *image = nullptr; ///< Null when none is held.
        int factor = 1; ///< Capture pixels per reference pixel (per axis).
        const raster::Image *fill = nullptr; ///< Paste base; null: gray.
    };

    /**
     * @param bands Band specs of the captures this system will see.
     * @param params Shared system parameters.
     * @param screen On-board cloud detection (empty: none).
     * @param selection The tile-selection rule.
     */
    OnboardSystem(std::vector<synth::BandSpec> bands,
                  const SystemParams &params, CloudScreen screen,
                  Selection selection);

    /**
     * A ChangedTiles system's reference for one kept capture, given
     * its location and capturing satellite.
     */
    virtual Reference reference(int, int) { return {}; }

    /** Runs once per downloaded (not dropped) capture, at the end. */
    virtual void afterDownload(const synth::Capture &, const ProcessResult &)
    {
    }

    /** Shared system parameters. */
    SystemParams params_;

  private:
    std::vector<synth::BandSpec> bands_;
    CloudScreen screen_;
    Selection selection_;
    /** Last full-download day per location. */
    std::map<int, double> lastFullDownload_;
};

/**
 * Earth+ — constellation-wide reference-based encoding.
 */
class EarthPlusSystem : public OnboardSystem
{
  public:
    /**
     * @param bands Band specs of the captures this system will see.
     * @param params Shared system parameters; `refDownsample` and
     *        `tileSize` set the geometry of every on-board cache.
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

  protected:
    /** The satellite's cached low-res reference over the mirror. */
    Reference reference(int locationId, int satelliteId) override;

    /** Offer the reconstruction to the ground store (unless external). */
    void afterDownload(const synth::Capture &capture,
                       const ProcessResult &result) override;

  private:
    UplinkPlanner planner_;
    ReferenceStore &ground_;
    std::map<int, OnboardCache> caches_;
    /** Full-res ground mirror of each (satellite, location) cache. */
    std::map<std::pair<int, int>, raster::Image> groundMirror_;
};

/**
 * Kodan — accurate on-board cloud filtering, downloads all non-cloudy
 * tiles.
 */
class KodanSystem : public OnboardSystem
{
  public:
    /** Accurate cloud screen, ClearTiles selection. */
    KodanSystem(std::vector<synth::BandSpec> bands,
                const SystemParams &params);

    const char *name() const override { return "Kodan"; }
};

/**
 * SatRoI — reference-based encoding with a fixed (never-refreshed)
 * full-resolution reference.
 */
class SatRoISystem : public OnboardSystem
{
  public:
    /** Cheap cloud screen, ChangedTiles selection at factor 1. */
    SatRoISystem(std::vector<synth::BandSpec> bands,
                 const SystemParams &params);

    const char *name() const override { return "SatRoI"; }

    /**
     * The frozen reference of one location — the fill process() pastes
     * decoded tiles over — or null before the first good full download.
     */
    const raster::Image *fixedReference(int locationId) const;

  protected:
    /** The frozen full-resolution reference, also the fill. */
    Reference reference(int locationId, int satelliteId) override;

    /** Freeze the location's first good full download. */
    void afterDownload(const synth::Capture &capture,
                       const ProcessResult &result) override;

  private:
    /** The fixed reference (set once per location, then frozen). */
    std::map<int, raster::Image> fixedRef_;
};

/**
 * Download-everything — no filtering, every tile encoded at gamma.
 */
class DownloadAllSystem : public OnboardSystem
{
  public:
    /** No cloud screen, Everything selection. */
    DownloadAllSystem(std::vector<synth::BandSpec> bands,
                      const SystemParams &params);

    const char *name() const override { return "DownloadAll"; }
};

} // namespace earthplus::core

#endif // EARTHPLUS_CORE_SYSTEMS_HH

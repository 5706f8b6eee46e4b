#include "core/systems.hh"

#include <chrono>
#include <cmath>
#include <limits>

#include "change/detector.hh"
#include "raster/metrics.hh"
#include "raster/resample.hh"
#include "util/parallel.hh"
#include "util/telemetry.hh"

namespace earthplus::core {

namespace {

/** Drop captures with more on-board-detected cloud than this. */
constexpr double kDropCloudFraction = 0.5;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double>(dt).count();
}

/** Zero out cloudy pixels (the paper's cloud removal, §5). */
raster::Plane
removeClouds(const raster::Plane &p, const raster::Bitmap &cloudMask)
{
    raster::Plane out = p;
    for (int y = 0; y < out.height(); ++y) {
        float *row = out.row(y);
        for (int x = 0; x < out.width(); ++x)
            if (cloudMask.get(x, y))
                row[x] = 0.0f;
    }
    return out;
}

/**
 * Encode every band of `img`, each over its own ROI (§5: bands are
 * handled separately — different areas change in different bands),
 * into `res`'s streams and byte counts. Zeroes cloudy pixels first.
 * Returns each band's reconstruction as the encoder built it, so the
 * ground side never entropy-decodes the stream it was just handed.
 */
std::vector<raster::Plane>
encodeBands(const raster::Image &img, const raster::Bitmap &cloudMask,
            const std::vector<raster::TileMask> &rois,
            const SystemParams &params, ProcessResult &res)
{
    // Cloud removal fans across bands; then one encode runs every
    // band's coded tiles as one job list, so no band's tile loop waits
    // behind another's.
    std::vector<raster::Plane> clean = util::parallelMap(
        rois.size(), [&](size_t b) {
            return removeClouds(img.band(static_cast<int>(b)), cloudMask);
        });
    std::vector<raster::Plane> decoded(rois.size());
    std::vector<codec::BandEncode> jobs(rois.size());
    for (size_t b = 0; b < rois.size(); ++b) {
        jobs[b].img = &clean[b];
        jobs[b].params.bitsPerPixel = params.gamma;
        jobs[b].params.tileSize = params.tileSize;
        jobs[b].params.roi = &rois[b];
        jobs[b].reconstruction = &decoded[b];
    }
    res.encodedBands = codec::encode(jobs);
    for (const auto &band : res.encodedBands) {
        res.bandDownlinkBytes.push_back(band.totalBytes());
        res.downlinkBytes += res.bandDownlinkBytes.back();
    }
    return decoded;
}

/** Mean set-fraction across per-band masks. */
double
meanRoiFraction(const std::vector<raster::TileMask> &rois)
{
    if (rois.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : rois)
        sum += r.fractionSet();
    return sum / static_cast<double>(rois.size());
}

/**
 * Ground reconstruction: decoded ROI tiles pasted over a fill image
 * (the ground's copy of the reference, or flat gray when absent).
 * `decoded` holds each band's decode, as encodeBands() produced it.
 */
raster::Image
reconstruct(const std::vector<raster::Plane> &decoded,
            const std::vector<raster::TileMask> &rois,
            const raster::Image *fill, int width, int height,
            int tileSize)
{
    static telemetry::Histogram &reconstructNs =
        telemetry::histogram("core.reconstruct_ns");
    telemetry::TraceSpan span("core.reconstruct", "core");
    telemetry::ScopedTimer timer(reconstructNs);
    // Bands paste independently; addBand order stays deterministic.
    auto planes = util::parallelMap(decoded.size(), [&](size_t b) {
        raster::Plane plane(width, height, 0.5f);
        if (fill && static_cast<int>(b) < fill->bandCount())
            plane = fill->band(static_cast<int>(b));
        raster::pasteTiles(plane, decoded[b], rois[b], tileSize);
        return plane;
    });
    raster::Image out;
    for (auto &p : planes)
        out.addBand(std::move(p));
    return out;
}

/** Mean PSNR across bands over non-cloudy pixels. */
double
meanPsnr(const raster::Image &truth, const raster::Image &recon,
         const raster::Bitmap &cloudTruth)
{
    raster::Bitmap valid = cloudTruth;
    valid.invert();
    // Bands score in parallel and sum in band order.
    std::vector<double> perBand = util::parallelMap(
        static_cast<size_t>(truth.bandCount()), [&](size_t b) {
            double p = raster::psnr(truth.band(static_cast<int>(b)),
                                    recon.band(static_cast<int>(b)), &valid);
            // An identical reconstruction; cap for averaging.
            return std::isinf(p) ? 99.0 : p;
        });
    double sum = 0.0;
    for (double p : perBand)
        sum += p;
    return perBand.empty() ? 0.0 : sum / static_cast<double>(perBand.size());
}

/** A cloud screen running `detector`. */
template <typename Detector>
auto
screenWith(Detector detector)
{
    return [detector](const auto &...args) {
        return detector.detect(args...);
    };
}

} // anonymous namespace

OnboardSystem::OnboardSystem(std::vector<synth::BandSpec> bands,
                             const SystemParams &params,
                             CloudScreen screen, Selection selection)
    : params_(params), bands_(std::move(bands)), screen_(std::move(screen)),
      selection_(selection)
{
}

ProcessResult
OnboardSystem::process(const synth::Capture &capture)
{
    ProcessResult res;
    const raster::Image &img = capture.image;
    int loc = img.info().locationId;
    double day = img.info().captureDay;
    raster::TileGrid grid(img.width(), img.height(), params_.tileSize);
    res.referenceAgeDays = std::numeric_limits<double>::infinity();

    // Cloud screen; an overcast capture is dropped before anything
    // else runs.
    cloud::CloudDetection cd;
    if (screen_) {
        auto t0 = std::chrono::steady_clock::now();
        cd = screen_(img, bands_, grid);
        res.cloudDetectSec = secondsSince(t0);
        res.measuredCloudCoverage = cd.coverage;
        if (cd.coverage > kDropCloudFraction) {
            res.dropped = true;
            return res;
        }
    } else {
        cd.pixelMask = raster::Bitmap(img.width(), img.height(), false);
        cd.tileMask = raster::TileMask(grid);
    }

    // Tile selection: every clear tile, unless a ChangedTiles system
    // holds a reference and owes no guaranteed download.
    raster::TileMask clear(grid, true);
    clear.subtract(cd.tileMask);
    Reference ref;
    bool changedOnly = false;
    if (selection_ == Selection::ChangedTiles) {
        ref = reference(loc, img.info().satelliteId);
        if (ref.image)
            res.referenceAgeDays = day - ref.image->info().captureDay;
        auto itFull = lastFullDownload_.find(loc);
        bool guaranteed =
            itFull == lastFullDownload_.end() ||
            day - itFull->second >= params_.guaranteedPeriodDays;
        changedOnly = ref.image && !guaranteed;
    }
    res.fullDownload = selection_ != Selection::ClearTiles && !changedOnly;

    std::vector<raster::TileMask> rois;
    if (changedOnly) {
        // Change detection per band against the reference, on
        // cloud-free pixels only. Bands are handled separately (§5)
        // and are independent, so they fan across the pool.
        auto t1 = std::chrono::steady_clock::now();
        raster::Bitmap validRef =
            raster::downsampleAny(cd.pixelMask, ref.factor);
        validRef.invert();
        change::ChangeDetectorParams cp;
        cp.threshold = params_.theta;
        cp.tileSize = params_.tileSize;
        cp.referenceFactor = ref.factor;
        rois = util::parallelMap(
            static_cast<size_t>(img.bandCount()), [&](size_t b) {
                change::ChangeDetection det = change::detectChanges(
                    img.band(static_cast<int>(b)),
                    ref.image->band(static_cast<int>(b)), cp, &validRef);
                raster::TileMask roi = det.changedTiles;
                roi.subtract(cd.tileMask);
                return roi;
            });
        res.changeDetectSec = secondsSince(t1);
    } else {
        rois.assign(static_cast<size_t>(img.bandCount()), clear);
    }

    auto t2 = std::chrono::steady_clock::now();
    std::vector<raster::Plane> decoded =
        encodeBands(img, cd.pixelMask, rois, params_, res);
    res.encodeSec = secondsSince(t2);
    res.downloadedTileFraction = selection_ == Selection::ChangedTiles
                                     ? meanRoiFraction(rois)
                                     : clear.fractionSet();

    res.reconstructed = reconstruct(decoded, rois, ref.fill, img.width(),
                                    img.height(), params_.tileSize);
    res.reconstructed.info() = img.info();
    res.psnr = meanPsnr(img, res.reconstructed, capture.cloudTruth);

    if (res.fullDownload)
        lastFullDownload_[loc] = day;
    afterDownload(capture, res);
    return res;
}

EarthPlusSystem::EarthPlusSystem(std::vector<synth::BandSpec> bands,
                                 const SystemParams &params,
                                 const UplinkPlanner::Params &uplinkParams,
                                 ReferenceStore &ground)
    : OnboardSystem(std::move(bands), params,
                    screenWith(cloud::CheapCloudDetector()),
                    Selection::ChangedTiles),
      planner_(uplinkParams), ground_(ground)
{
}

OnboardCache &
EarthPlusSystem::cacheFor(int satelliteId)
{
    auto it = caches_.find(satelliteId);
    if (it == caches_.end())
        it = caches_.emplace(satelliteId,
                             OnboardCache(params_.refDownsample,
                                          params_.tileSize)).first;
    return it->second;
}

const raster::Image *
EarthPlusSystem::groundMirror(int satelliteId, int locationId) const
{
    auto it = groundMirror_.find(std::make_pair(satelliteId, locationId));
    return it == groundMirror_.end() ? nullptr : &it->second;
}

UplinkPlan
EarthPlusSystem::prepareCapture(int locationId, int satelliteId,
                                orbit::DailyByteBudget &budget)
{
    OnboardCache &cache = cacheFor(satelliteId);
    UplinkPlan plan = planner_.planUpdate(ground_, cache, locationId,
                                          budget);
    if (plan.sent) {
        // Mirror the cache update at full resolution on the ground so
        // reconstruction uses exactly the content the satellite
        // compared against: the same tiles, from the same reference.
        const raster::Image &full = ground_.reference(locationId);
        raster::Image &mirror =
            groundMirror_
                .try_emplace(std::make_pair(satelliteId, locationId),
                             full.width(), full.height(), full.bandCount())
                .first->second;
        for (int b = 0; b < mirror.bandCount(); ++b)
            raster::pasteTiles(mirror.band(b), full.band(b),
                               plan.updatedTiles, params_.tileSize);
        mirror.info() = full.info();
    }
    return plan;
}

OnboardSystem::Reference
EarthPlusSystem::reference(int locationId, int satelliteId)
{
    OnboardCache &cache = cacheFor(satelliteId);
    return {cache.has(locationId) ? &cache.reference(locationId) : nullptr,
            cache.downsampleFactor(), groundMirror(satelliteId, locationId)};
}

void
EarthPlusSystem::afterDownload(const synth::Capture &capture,
                               const ProcessResult &result)
{
    // The ground re-detects clouds with its accurate detector; we model
    // that near-perfect detector with the ground-truth coverage (see
    // DESIGN.md). With a ground segment in the loop, ingestion instead
    // happens when the packetized download completes.
    if (!params_.externalGroundIngest)
        ground_.offer(result.reconstructed, capture.cloudCoverage);
}

KodanSystem::KodanSystem(std::vector<synth::BandSpec> bands,
                         const SystemParams &params)
    : OnboardSystem(std::move(bands), params,
                    screenWith(cloud::AccurateCloudDetector()),
                    Selection::ClearTiles)
{
}

SatRoISystem::SatRoISystem(std::vector<synth::BandSpec> bands,
                           const SystemParams &params)
    : OnboardSystem(std::move(bands), params,
                    screenWith(cloud::CheapCloudDetector()),
                    Selection::ChangedTiles)
{
}

const raster::Image *
SatRoISystem::fixedReference(int locationId) const
{
    auto it = fixedRef_.find(locationId);
    return it == fixedRef_.end() ? nullptr : &it->second;
}

OnboardSystem::Reference
SatRoISystem::reference(int locationId, int)
{
    const raster::Image *ref = fixedReference(locationId);
    return {ref, 1, ref};
}

void
SatRoISystem::afterDownload(const synth::Capture &capture,
                            const ProcessResult &result)
{
    // The reference is fixed: set it from the first good full
    // download, never update afterwards [61].
    if (result.fullDownload && capture.cloudCoverage < 0.05)
        fixedRef_.try_emplace(capture.image.info().locationId,
                              result.reconstructed);
}

DownloadAllSystem::DownloadAllSystem(std::vector<synth::BandSpec> bands,
                                     const SystemParams &params)
    : OnboardSystem(std::move(bands), params, nullptr,
                    Selection::Everything)
{
}

} // namespace earthplus::core

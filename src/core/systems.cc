#include "core/systems.hh"

#include <chrono>
#include <cmath>
#include <limits>

#include "change/detector.hh"
#include "raster/metrics.hh"
#include "raster/resample.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/telemetry.hh"

namespace earthplus::core {

namespace {

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

/** One band's downlink stream and what the ground decodes it to. */
struct EncodedBand
{
    codec::EncodedImage encoded;
    /** decode() of `encoded`, taken from the encoder's own state. */
    raster::Plane decoded;
};

/**
 * Encode every band of `img`, each over its own ROI (§5: bands are
 * handled separately — different areas change in different bands).
 * Zeroes cloudy pixels first. `decoded` receives each band's
 * reconstruction as the encoder builds it, so the ground side never
 * entropy-decodes the stream it was just handed.
 */
size_t
encodeBands(const raster::Image &img, const raster::Bitmap &cloudMask,
            const std::vector<raster::TileMask> &rois,
            const SystemParams &params,
            std::vector<codec::EncodedImage> &encoded,
            std::vector<size_t> &bandBytes,
            std::vector<raster::Plane> &decoded)
{
    // Bands are independent encode jobs; each band's per-tile jobs
    // nest inline when the pool is already saturated.
    auto results = util::parallelMap(
        static_cast<size_t>(img.bandCount()), [&](size_t b) {
            raster::Plane clean =
                removeClouds(img.band(static_cast<int>(b)), cloudMask);
            codec::EncodeParams ep;
            ep.bitsPerPixel = params.gamma;
            ep.tileSize = params.tileSize;
            ep.roi = &rois[b];
            EncodedBand band;
            band.encoded = codec::encode(clean, ep, &band.decoded);
            return band;
        });
    size_t bytes = 0;
    bandBytes.clear();
    decoded.clear();
    for (auto &band : results) {
        bandBytes.push_back(band.encoded.totalBytes());
        bytes += bandBytes.back();
        encoded.push_back(std::move(band.encoded));
        decoded.push_back(std::move(band.decoded));
    }
    return bytes;
}

/** The same tile mask replicated for every band. */
std::vector<raster::TileMask>
uniformRois(const raster::TileMask &roi, int bands)
{
    return std::vector<raster::TileMask>(static_cast<size_t>(bands), roi);
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
    raster::TileGrid grid(width, height, tileSize);
    // Bands paste independently; addBand order stays deterministic.
    auto planes = util::parallelMap(decoded.size(), [&](size_t b) {
        raster::Plane plane(width, height, 0.5f);
        if (fill && static_cast<int>(b) < fill->bandCount())
            plane = fill->band(static_cast<int>(b));
        const raster::TileMask &roi = rois[b];
        for (int t = 0; t < grid.tileCount(); ++t) {
            if (!roi.get(t))
                continue;
            raster::TileRect r = grid.rect(t);
            plane.paste(decoded[b].crop(r.x0, r.y0, r.width, r.height),
                        r.x0, r.y0);
        }
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
    double sum = 0.0;
    int n = 0;
    for (int b = 0; b < truth.bandCount(); ++b) {
        double p = raster::psnr(truth.band(b), recon.band(b), &valid);
        if (std::isinf(p))
            p = 99.0; // identical reconstruction; cap for averaging
        sum += p;
        ++n;
    }
    return n ? sum / n : 0.0;
}

} // anonymous namespace

EarthPlusSystem::EarthPlusSystem(std::vector<synth::BandSpec> bands,
                                 const SystemParams &params,
                                 const UplinkPlanner::Params &uplinkParams,
                                 ReferenceStore &ground)
    : bands_(std::move(bands)), params_(params), planner_(uplinkParams),
      ground_(ground)
{
    EP_ASSERT(params_.tileSize % params_.refDownsample == 0,
              "tile size %d not divisible by reference downsample %d",
              params_.tileSize, params_.refDownsample);
}

OnboardCache &
EarthPlusSystem::cacheFor(int satelliteId)
{
    auto it = caches_.find(satelliteId);
    if (it == caches_.end())
        it = caches_.emplace(satelliteId,
                             OnboardCache(params_.refDownsample)).first;
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
        // compared against.
        auto key = std::make_pair(satelliteId, locationId);
        const raster::Image &full = ground_.reference(locationId);
        if (plan.fullInstall || groundMirror_.count(key) == 0) {
            groundMirror_[key] = full;
        } else {
            raster::Image &mirror = groundMirror_[key];
            raster::TileGrid grid(mirror.width(), mirror.height(),
                                  params_.tileSize);
            for (int t = 0; t < grid.tileCount(); ++t) {
                if (plan.updatedTiles.count() == 0 ||
                    !plan.updatedTiles.get(t))
                    continue;
                raster::TileRect r = grid.rect(t);
                for (int b = 0; b < mirror.bandCount(); ++b)
                    mirror.band(b).paste(
                        full.band(b).crop(r.x0, r.y0, r.width, r.height),
                        r.x0, r.y0);
            }
            mirror.info() = full.info();
        }
    }
    return plan;
}

ProcessResult
EarthPlusSystem::process(const synth::Capture &capture)
{
    ProcessResult res;
    const raster::Image &img = capture.image;
    int loc = img.info().locationId;
    int sat = img.info().satelliteId;
    double day = img.info().captureDay;
    raster::TileGrid grid(img.width(), img.height(), params_.tileSize);

    auto t0 = std::chrono::steady_clock::now();
    cloud::CloudDetection cd =
        cloudDetector_.detect(img, bands_, grid);
    res.cloudDetectSec = secondsSince(t0);
    res.measuredCloudCoverage = cd.coverage;
    if (cd.coverage > params_.dropCloudFraction) {
        res.dropped = true;
        return res;
    }

    OnboardCache &cache = cacheFor(sat);
    bool haveRef = cache.has(loc);
    res.referenceAgeDays =
        haveRef ? day - cache.referenceDay(loc)
                : std::numeric_limits<double>::infinity();

    auto itFull = lastFullDownload_.find(loc);
    bool guaranteed =
        itFull == lastFullDownload_.end() ||
        day - itFull->second >= params_.guaranteedPeriodDays;

    std::vector<raster::TileMask> rois;
    if (guaranteed || !haveRef) {
        raster::TileMask roi(grid, true);
        roi.subtract(cd.tileMask);
        rois = uniformRois(roi, img.bandCount());
        res.fullDownload = true;
    } else {
        // Change detection per band against the cached low-res
        // reference, on cloud-free pixels only. Bands are handled
        // separately (§5) and are independent, so they fan across the
        // pool.
        auto t1 = std::chrono::steady_clock::now();
        raster::Bitmap validLow =
            raster::downsampleAny(cd.pixelMask, params_.refDownsample);
        validLow.invert();
        const raster::Image &ref = cache.reference(loc);
        change::ChangeDetectorParams cp;
        cp.threshold = params_.theta;
        cp.tileSize = params_.tileSize;
        cp.referenceFactor = params_.refDownsample;
        rois = util::parallelMap(
            static_cast<size_t>(img.bandCount()), [&](size_t b) {
                change::ChangeDetection det = change::detectChanges(
                    img.band(static_cast<int>(b)),
                    ref.band(static_cast<int>(b)), cp, &validLow);
                raster::TileMask roi = det.changedTiles;
                roi.subtract(cd.tileMask);
                return roi;
            });
        res.changeDetectSec = secondsSince(t1);
    }

    auto t2 = std::chrono::steady_clock::now();
    std::vector<raster::Plane> decoded;
    res.downlinkBytes = encodeBands(img, cd.pixelMask, rois, params_,
                                    res.encodedBands,
                                    res.bandDownlinkBytes, decoded);
    res.encodeSec = secondsSince(t2);
    res.downloadedTileFraction = meanRoiFraction(rois);

    // Ground side: reconstruct from the mirror of the satellite's
    // reference and offer the result as a fresh reference.
    const raster::Image *fill = groundMirror(sat, loc);
    res.reconstructed = reconstruct(decoded, rois, fill, img.width(),
                                    img.height(), params_.tileSize);
    res.reconstructed.info() = img.info();
    res.psnr = meanPsnr(img, res.reconstructed, capture.cloudTruth);

    if (res.fullDownload)
        lastFullDownload_[loc] = day;
    // The ground re-detects clouds with its accurate detector; we model
    // that near-perfect detector with the ground-truth coverage (see
    // DESIGN.md). With a ground segment in the loop, ingestion instead
    // happens when the packetized download completes.
    if (!params_.externalGroundIngest)
        ground_.offer(res.reconstructed, capture.cloudCoverage);
    return res;
}

KodanSystem::KodanSystem(std::vector<synth::BandSpec> bands,
                         const SystemParams &params)
    : bands_(std::move(bands)), params_(params)
{
}

ProcessResult
KodanSystem::process(const synth::Capture &capture)
{
    ProcessResult res;
    const raster::Image &img = capture.image;
    raster::TileGrid grid(img.width(), img.height(), params_.tileSize);
    res.referenceAgeDays = std::numeric_limits<double>::infinity();

    auto t0 = std::chrono::steady_clock::now();
    cloud::CloudDetection cd = cloudDetector_.detect(img, bands_, grid);
    res.cloudDetectSec = secondsSince(t0);
    res.measuredCloudCoverage = cd.coverage;
    if (cd.coverage > params_.dropCloudFraction) {
        res.dropped = true;
        return res;
    }

    // Download every tile that is not cloudy.
    raster::TileMask roi(grid, true);
    roi.subtract(cd.tileMask);
    std::vector<raster::TileMask> rois = uniformRois(roi, img.bandCount());

    auto t2 = std::chrono::steady_clock::now();
    std::vector<raster::Plane> decoded;
    res.downlinkBytes = encodeBands(img, cd.pixelMask, rois, params_,
                                    res.encodedBands,
                                    res.bandDownlinkBytes, decoded);
    res.encodeSec = secondsSince(t2);
    res.downloadedTileFraction = roi.fractionSet();

    res.reconstructed = reconstruct(decoded, rois, nullptr, img.width(),
                                    img.height(), params_.tileSize);
    res.reconstructed.info() = img.info();
    res.psnr = meanPsnr(img, res.reconstructed, capture.cloudTruth);
    return res;
}

SatRoISystem::SatRoISystem(std::vector<synth::BandSpec> bands,
                           const SystemParams &params)
    : bands_(std::move(bands)), params_(params)
{
}

const raster::Image *
SatRoISystem::fixedReference(int locationId) const
{
    auto it = fixedRef_.find(locationId);
    return it == fixedRef_.end() ? nullptr : &it->second;
}

ProcessResult
SatRoISystem::process(const synth::Capture &capture)
{
    ProcessResult res;
    const raster::Image &img = capture.image;
    int loc = img.info().locationId;
    double day = img.info().captureDay;
    raster::TileGrid grid(img.width(), img.height(), params_.tileSize);

    auto t0 = std::chrono::steady_clock::now();
    cloud::CloudDetection cd = cloudDetector_.detect(img, bands_, grid);
    res.cloudDetectSec = secondsSince(t0);
    res.measuredCloudCoverage = cd.coverage;
    if (cd.coverage > params_.dropCloudFraction) {
        res.dropped = true;
        return res;
    }

    const raster::Image *ref = fixedReference(loc);
    bool haveRef = ref != nullptr;
    res.referenceAgeDays =
        haveRef ? day - ref->info().captureDay
                : std::numeric_limits<double>::infinity();

    auto itFull = lastFullDownload_.find(loc);
    bool guaranteed =
        itFull == lastFullDownload_.end() ||
        day - itFull->second >= params_.guaranteedPeriodDays;

    std::vector<raster::TileMask> rois;
    if (guaranteed || !haveRef) {
        raster::TileMask roi(grid, true);
        roi.subtract(cd.tileMask);
        rois = uniformRois(roi, img.bandCount());
        res.fullDownload = true;
    } else {
        // Full-resolution change detection against the frozen
        // reference, band by band across the pool.
        auto t1 = std::chrono::steady_clock::now();
        raster::Bitmap valid = cd.pixelMask;
        valid.invert();
        change::ChangeDetectorParams cp;
        cp.threshold = params_.theta;
        cp.tileSize = params_.tileSize;
        cp.referenceFactor = 1;
        rois = util::parallelMap(
            static_cast<size_t>(img.bandCount()), [&](size_t b) {
                change::ChangeDetection det = change::detectChanges(
                    img.band(static_cast<int>(b)),
                    ref->band(static_cast<int>(b)), cp, &valid);
                raster::TileMask roi = det.changedTiles;
                roi.subtract(cd.tileMask);
                return roi;
            });
        res.changeDetectSec = secondsSince(t1);
    }

    auto t2 = std::chrono::steady_clock::now();
    std::vector<raster::Plane> decoded;
    res.downlinkBytes = encodeBands(img, cd.pixelMask, rois, params_,
                                    res.encodedBands,
                                    res.bandDownlinkBytes, decoded);
    res.encodeSec = secondsSince(t2);
    res.downloadedTileFraction = meanRoiFraction(rois);

    res.reconstructed = reconstruct(decoded, rois, ref, img.width(),
                                    img.height(), params_.tileSize);
    res.reconstructed.info() = img.info();
    res.psnr = meanPsnr(img, res.reconstructed, capture.cloudTruth);

    if (res.fullDownload)
        lastFullDownload_[loc] = day;
    // The reference is fixed: set it from the first good full
    // download, never update afterwards [61].
    if (!haveRef && res.fullDownload && capture.cloudCoverage < 0.05)
        fixedRef_[loc] = res.reconstructed;
    return res;
}

DownloadAllSystem::DownloadAllSystem(std::vector<synth::BandSpec> bands,
                                     const SystemParams &params)
    : bands_(std::move(bands)), params_(params)
{
}

ProcessResult
DownloadAllSystem::process(const synth::Capture &capture)
{
    ProcessResult res;
    const raster::Image &img = capture.image;
    raster::TileGrid grid(img.width(), img.height(), params_.tileSize);
    res.referenceAgeDays = std::numeric_limits<double>::infinity();
    res.fullDownload = true;

    raster::TileMask roi(grid, true);
    std::vector<raster::TileMask> rois = uniformRois(roi, img.bandCount());
    raster::Bitmap noClouds(img.width(), img.height(), false);

    auto t2 = std::chrono::steady_clock::now();
    std::vector<raster::Plane> decoded;
    res.downlinkBytes = encodeBands(img, noClouds, rois, params_,
                                    res.encodedBands,
                                    res.bandDownlinkBytes, decoded);
    res.encodeSec = secondsSince(t2);
    res.downloadedTileFraction = 1.0;

    res.reconstructed = reconstruct(decoded, rois, nullptr, img.width(),
                                    img.height(), params_.tileSize);
    res.reconstructed.info() = img.info();
    res.psnr = meanPsnr(img, res.reconstructed, capture.cloudTruth);
    return res;
}

} // namespace earthplus::core

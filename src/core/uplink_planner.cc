#include "core/uplink_planner.hh"

#include "change/detector.hh"
#include "raster/resample.hh"
#include "util/parallel.hh"

namespace earthplus::core {

UplinkPlanner::UplinkPlanner() = default;

UplinkPlanner::UplinkPlanner(const Params &params)
    : params_(params)
{
}

double
UplinkPlanner::encodedBytes(const raster::Image &lowRes,
                            const raster::TileMask &tiles,
                            int tileSizeLow) const
{
    std::vector<codec::BandEncode> bands(
        static_cast<size_t>(lowRes.bandCount()));
    for (size_t b = 0; b < bands.size(); ++b) {
        bands[b].img = &lowRes.band(static_cast<int>(b));
        bands[b].params.bitsPerPixel = params_.bitsPerPixel;
        bands[b].params.tileSize = tileSizeLow;
        bands[b].params.dwtLevels = 3;
        bands[b].params.roi = &tiles;
    }
    double total = 0.0;
    for (const codec::EncodedImage &enc : codec::encode(bands))
        total += static_cast<double>(enc.totalBytes());
    return total;
}

UplinkPlan
UplinkPlanner::planUpdate(const ReferenceStore &ground, OnboardCache &cache,
                          int locationId,
                          orbit::DailyByteBudget &budget) const
{
    UplinkPlan plan;
    if (!ground.has(locationId))
        return plan; // nothing downloaded for this location yet

    double groundDay = ground.referenceDay(locationId);
    if (cache.has(locationId) &&
        cache.referenceDay(locationId) >= groundDay)
        return plan; // cache is already fresh

    const raster::Image &full = ground.reference(locationId);
    // Bands downsample in parallel and join in band order.
    raster::Image lowRes;
    for (raster::Plane &band : util::parallelMap(
             static_cast<size_t>(full.bandCount()), [&](size_t b) {
                 return raster::downsample(full.band(static_cast<int>(b)),
                                           cache.downsampleFactor());
             }))
        lowRes.addBand(std::move(band));
    lowRes.info() = full.info();

    // The update is the low-res tiles that differ from the satellite's
    // cached copy (the ground mirrors the cache content exactly, since
    // every applied update is deterministic). First contact is a delta
    // against an empty cache: every tile counts as changed.
    int tileLow = cache.lowResTileSize();
    raster::TileGrid grid(lowRes.width(), lowRes.height(), tileLow);
    raster::TileMask changed(grid, !cache.has(locationId));
    if (cache.has(locationId)) {
        const raster::Image &cached = cache.reference(locationId);
        for (int b = 0; b < lowRes.bandCount(); ++b) {
            auto diffs = change::tileMeanAbsDiff(lowRes.band(b),
                                                 cached.band(b), tileLow);
            for (int t = 0; t < grid.tileCount(); ++t) {
                if (diffs[static_cast<size_t>(t)] > params_.deltaThreshold)
                    changed.set(t, true);
            }
        }
    }

    // An unchanged reference costs nothing and only refreshes the day,
    // so age accounting reflects the newer observation.
    double bytes = changed.countSet() == 0
                       ? 0.0
                       : encodedBytes(lowRes, changed, tileLow);
    if (!budget.tryConsume(bytes)) {
        plan.skippedForBudget = true;
        return plan;
    }
    cache.updateTiles(locationId, lowRes, changed);
    plan.sent = true;
    plan.bytes = bytes;
    plan.updatedTiles = std::move(changed);
    return plan;
}

} // namespace earthplus::core

#include "core/onboard_cache.hh"

#include "util/logging.hh"

namespace earthplus::core {

OnboardCache::OnboardCache(int downsampleFactor, int tileSize)
    : factor_(downsampleFactor), tileSizeLow_(tileSize / downsampleFactor)
{
    EP_ASSERT(downsampleFactor >= 1, "invalid downsample factor %d",
              downsampleFactor);
    EP_ASSERT(tileSize > 0 && tileSize % downsampleFactor == 0,
              "tile size %d not divisible by downsample factor %d",
              tileSize, downsampleFactor);
}

bool
OnboardCache::has(int locationId) const
{
    return cache_.count(locationId) != 0;
}

const raster::Image &
OnboardCache::reference(int locationId) const
{
    auto it = cache_.find(locationId);
    EP_ASSERT(it != cache_.end(), "no cached reference for location %d",
              locationId);
    return it->second;
}

double
OnboardCache::referenceDay(int locationId) const
{
    return reference(locationId).info().captureDay;
}

void
OnboardCache::updateTiles(int locationId, const raster::Image &newLowRes,
                          const raster::TileMask &tiles)
{
    raster::Image &cached =
        cache_.try_emplace(locationId, newLowRes.width(),
                           newLowRes.height(), newLowRes.bandCount())
            .first->second;
    EP_ASSERT(cached.bandCount() == newLowRes.bandCount(),
              "reference update band count mismatch");
    for (int b = 0; b < cached.bandCount(); ++b)
        raster::pasteTiles(cached.band(b), newLowRes.band(b), tiles,
                           tileSizeLow_);
    cached.info() = newLowRes.info();
}

} // namespace earthplus::core

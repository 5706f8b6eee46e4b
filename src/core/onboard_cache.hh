/**
 * @file
 * On-board cache of downsampled reference images.
 *
 * Reference-based encoding frees the storage that whole captured
 * images would have used; Earth+ spends part of that saving on a local
 * cache of low-resolution references for every location the satellite
 * will visit (§4.3). The cache is what makes delta reference updates
 * possible (only changed low-res tiles are uplinked) and what lets the
 * satellite keep operating across uplink outages.
 */

#ifndef EARTHPLUS_CORE_ONBOARD_CACHE_HH
#define EARTHPLUS_CORE_ONBOARD_CACHE_HH

#include <map>

#include "raster/image.hh"
#include "raster/tile.hh"

namespace earthplus::core {

/**
 * Per-location low-resolution reference cache.
 */
class OnboardCache
{
  public:
    /**
     * The cache owns the reference geometry: the uplink planner and the
     * on-board change detector both read it from here.
     *
     * @param downsampleFactor Reference downsampling factor relative
     *        to capture resolution.
     * @param tileSize Full-resolution tile edge length in pixels (a
     *        multiple of `downsampleFactor`).
     */
    OnboardCache(int downsampleFactor, int tileSize);

    /** True when the cache holds a reference for the location. */
    bool has(int locationId) const;

    /** Cached low-resolution reference (must exist). */
    const raster::Image &reference(int locationId) const;

    /** Capture day of the cached reference (must exist). */
    double referenceDay(int locationId) const;

    /**
     * Apply a reference update: replace the given tiles of the cached
     * reference with the corresponding tiles of `newLowRes` and take
     * its capture day. An absent location is created first, so an
     * all-tile mask installs `newLowRes` whole.
     *
     * @param locationId Location to update.
     * @param newLowRes New low-resolution reference image.
     * @param tiles Tiles (full-resolution tile indices) to refresh.
     */
    void updateTiles(int locationId, const raster::Image &newLowRes,
                     const raster::TileMask &tiles);

    /** The configured downsampling factor. */
    int downsampleFactor() const { return factor_; }

    /** Tile edge length in low-res pixels. */
    int lowResTileSize() const { return tileSizeLow_; }

    /** Number of cached locations. */
    size_t size() const { return cache_.size(); }

  private:
    int factor_;
    int tileSizeLow_;
    std::map<int, raster::Image> cache_;
};

} // namespace earthplus::core

#endif // EARTHPLUS_CORE_ONBOARD_CACHE_HH

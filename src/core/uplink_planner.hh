/**
 * @file
 * Ground-side uplink planner.
 *
 * Implements the paper's three uplink-reduction techniques (§4.3):
 *
 *  1. references are downsampled before upload,
 *  2. only low-res tiles that changed against the satellite's cached
 *     copy are uplinked (the ground mirrors the on-board cache, so it
 *     knows exactly what the satellite holds; with nothing cached,
 *     every tile has changed), and
 *  3. when the uplink budget is exhausted, updates are skipped and the
 *     satellite keeps using its older cached reference.
 */

#ifndef EARTHPLUS_CORE_UPLINK_PLANNER_HH
#define EARTHPLUS_CORE_UPLINK_PLANNER_HH

#include "codec/codec.hh"
#include "core/onboard_cache.hh"
#include "core/reference_store.hh"
#include "orbit/links.hh"
#include "raster/tile.hh"

namespace earthplus::core {

/**
 * Result of one reference-update attempt. An update is one low-res
 * tile mask and its byte charge: the on-board cache, the ground mirror
 * and the uplink budget all apply that same mask.
 */
struct UplinkPlan
{
    /** The update was applied (a zero-byte one refreshes the day). */
    bool sent = false;
    /** Update skipped because the budget ran out. */
    bool skippedForBudget = false;
    /** Bytes consumed on the uplink. */
    double bytes = 0.0;
    /**
     * Tiles refreshed in the cache and the mirror: every tile on first
     * contact, the changed ones after. Empty unless `sent`.
     */
    raster::TileMask updatedTiles;
};

/**
 * Plans and applies reference updates for one satellite's cache.
 */
class UplinkPlanner
{
  public:
    /**
     * Update-encoding parameters. The reference geometry (downsampling
     * factor, low-res tile size) is the updated OnboardCache's.
     */
    struct Params
    {
        /**
         * Low-res mean-abs-diff above which a low-res tile is included
         * in a delta update.
         */
        double deltaThreshold = 0.004;
        /** Bits per (low-res) pixel for encoding uplinked tiles. */
        double bitsPerPixel = 6.0;
    };

    /** Construct with default parameters. */
    UplinkPlanner();

    /** Construct with explicit parameters. */
    explicit UplinkPlanner(const Params &params);

    /**
     * Attempt a reference update for one location before a capture.
     *
     * Compares the ground's freshest reference with the satellite's
     * cached copy (an absent copy differs on every tile), charges the
     * encoded changed tiles to the budget, and applies them to the
     * cache when the budget admits them.
     *
     * @param ground Ground reference store.
     * @param cache On-board cache to update.
     * @param locationId Location about to be captured.
     * @param budget Uplink byte budget to draw from.
     * @return What happened (see UplinkPlan).
     */
    UplinkPlan planUpdate(const ReferenceStore &ground, OnboardCache &cache,
                          int locationId,
                          orbit::DailyByteBudget &budget) const;

    const Params &params() const { return params_; }

  private:
    Params params_;

    /**
     * Wire size of the `tiles` of a low-res reference coded in
     * `tileSizeLow`-pixel tiles.
     */
    double encodedBytes(const raster::Image &lowRes,
                        const raster::TileMask &tiles,
                        int tileSizeLow) const;
};

} // namespace earthplus::core

#endif // EARTHPLUS_CORE_UPLINK_PLANNER_HH

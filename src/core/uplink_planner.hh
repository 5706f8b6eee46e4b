/**
 * @file
 * Ground-side uplink planner.
 *
 * Implements the paper's three uplink-reduction techniques (§4.3):
 *
 *  1. references are downsampled before upload,
 *  2. only low-res tiles that changed against the satellite's cached
 *     copy are uplinked (the ground mirrors the on-board cache, so it
 *     knows exactly what the satellite holds), and
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

/** Result of one reference-update attempt. */
struct UplinkPlan
{
    /** An update was transmitted. */
    bool sent = false;
    /** Update skipped because the budget ran out. */
    bool skippedForBudget = false;
    /** First-time full install (vs. delta update). */
    bool fullInstall = false;
    /** Bytes consumed on the uplink. */
    double bytes = 0.0;
    /** Tiles refreshed in the cache (empty mask for full installs). */
    raster::TileMask updatedTiles;
    /** Fraction of low-res tiles carried by a delta update. */
    double updatedTileFraction = 0.0;
    /**
     * Compression ratio vs. the raw full-resolution reference
     * (the Fig.-17 metric).
     */
    double compressionRatio = 0.0;
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
     * cached copy, encodes the difference, and applies it to the cache
     * when the budget admits it.
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
     * Wire size of a full or partial low-res reference upload coded in
     * `tileSizeLow`-pixel tiles.
     */
    double encodedBytes(const raster::Image &lowRes,
                        const raster::TileMask *tiles,
                        int tileSizeLow) const;
};

} // namespace earthplus::core

#endif // EARTHPLUS_CORE_UPLINK_PLANNER_HH

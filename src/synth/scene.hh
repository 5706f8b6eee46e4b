/**
 * @file
 * Ground-truth scene evolution for one geographic location.
 *
 * SceneModel answers "what does the ground actually look like on day t
 * in band b" — before clouds, illumination and sensor noise are applied
 * by the capture simulator. It combines:
 *
 *  - a static land-cover base with terrain texture,
 *  - a smooth seasonal cycle (strong in vegetation bands),
 *  - discrete per-tile change events (Poisson arrivals whose rates are
 *    land-cover-dependent, calibrated to the paper's Fig. 4 curve),
 *  - seasonal snow with per-day varying albedo (the reason the paper's
 *    snowy locations H and D see little benefit, Fig. 14), and
 *  - a drifting atmospheric field (dominant in bands B1/B9/B10).
 */

#ifndef EARTHPLUS_SYNTH_SCENE_HH
#define EARTHPLUS_SYNTH_SCENE_HH

#include <vector>

#include "raster/image.hh"
#include "raster/tile.hh"
#include "synth/bands.hh"
#include "synth/landcover.hh"

namespace earthplus::synth {

/** Scene generation configuration. */
struct SceneConfig
{
    /** Image width in pixels. */
    int width = 256;
    /** Image height in pixels. */
    int height = 256;
    /** Tile edge length (the paper's change-accounting unit). */
    int tileSize = raster::kDefaultTileSize;
    /** Spectral bands to synthesize. */
    std::vector<BandSpec> bands;
    /** Earliest day change events are generated for (history). */
    double historyStartDay = -120.0;
    /** Latest day change events are generated for. */
    double horizonDays = 480.0;
};

/**
 * Deterministic ground-truth generator for one location.
 *
 * All queries are const; a small per-tile cache of accumulated change
 * deltas is maintained internally (not thread-safe).
 */
class SceneModel
{
  public:
    SceneModel(const LocationProfile &profile, const SceneConfig &config);

    /** The location this scene models. */
    const LocationProfile &profile() const { return profile_; }

    /** Generation configuration. */
    const SceneConfig &config() const { return config_; }

    /** Land-cover classification. */
    const LandCoverMap &landCover() const { return landCover_; }

    /** Tile grid used for change events. */
    const raster::TileGrid &grid() const { return grid_; }

    /**
     * Ground-truth reflectance of band b on the given day (no clouds,
     * no illumination, no sensor noise). Values in [0, 1].
     */
    raster::Plane groundTruth(double day, int b) const;

    /** All bands on the given day. */
    raster::Image groundTruthImage(double day) const;

    /** Number of discrete change events in tile t within (d1, d2]. */
    int eventsBetween(int tileIdx, double d1, double d2) const;

    /**
     * Ground-truth changed-tile mask between two days: a tile is
     * changed when it saw a discrete event or contains snow whose
     * albedo moved materially.
     */
    raster::TileMask trueChangedTiles(double d1, double d2) const;

    /** Snow albedo on the given day (varies day to day). */
    double snowAlbedo(double day) const;

    /** Seasonal snow extent weight in [0, 1] (0 in summer). */
    double snowSeason(double day) const;

  private:
    LocationProfile profile_;
    SceneConfig config_;
    LandCoverMap landCover_;
    raster::TileGrid grid_;

    raster::Plane classBase_;    ///< Per-pixel land-cover base level.
    raster::Plane detail_;       ///< Zero-mean terrain texture.
    raster::Plane seasonWeight_; ///< Per-pixel seasonal response.
    raster::Plane snowWeight_;   ///< Per-pixel snow-proneness (0 if not snowy).

    /** Event times per tile, sorted ascending. */
    std::vector<std::vector<double>> eventTimes_;

    struct TileChangeCache
    {
        int applied = 0;       ///< Number of events folded in.
        raster::Plane delta;   ///< Accumulated zero-mean delta.
    };
    mutable std::vector<TileChangeCache> changeCache_;

    /** Accumulated change delta for tile t with `count` events applied. */
    const raster::Plane &changeDelta(int tileIdx, int count) const;

    /** Zero-mean texture of one change event. */
    raster::Plane eventTexture(int tileIdx, int eventIdx, int w,
                               int h) const;
};

} // namespace earthplus::synth

#endif // EARTHPLUS_SYNTH_SCENE_HH

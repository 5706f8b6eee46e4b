/**
 * @file
 * Geographic tile grid and tile-level masks.
 *
 * The paper performs all change accounting at the granularity of 64x64
 * pixel tiles (§3): a tile is the unit that is detected as changed,
 * encoded, downloaded, and cached.
 */

#ifndef EARTHPLUS_RASTER_TILE_HH
#define EARTHPLUS_RASTER_TILE_HH

#include <cstdint>
#include <vector>

#include "raster/bitmap.hh"
#include "raster/plane.hh"

namespace earthplus::raster {

/** Default tile edge length in pixels (paper §3). */
constexpr int kDefaultTileSize = 64;

/** A tile's pixel rectangle within a plane. */
struct TileRect
{
    int x0;     ///< Left pixel column.
    int y0;     ///< Top pixel row.
    int width;  ///< Width in pixels (may be short at the right edge).
    int height; ///< Height in pixels (may be short at the bottom edge).
};

/**
 * Partition of a plane into fixed-size tiles.
 *
 * Edge tiles may be smaller when the plane size is not a multiple of the
 * tile size.
 */
class TileGrid
{
  public:
    /**
     * @param width Plane width in pixels.
     * @param height Plane height in pixels.
     * @param tileSize Tile edge length in pixels (> 0).
     */
    TileGrid(int width, int height, int tileSize = kDefaultTileSize);

    /** Number of tile columns. */
    int tilesX() const { return tilesX_; }

    /** Number of tile rows. */
    int tilesY() const { return tilesY_; }

    /** Total tile count. */
    int tileCount() const { return tilesX_ * tilesY_; }

    /** Tile edge length in pixels. */
    int tileSize() const { return tileSize_; }

    /** Pixel rectangle of tile (tx, ty). */
    TileRect rect(int tx, int ty) const;

    /** Pixel rectangle of the tile with flat index t. */
    TileRect rect(int t) const;

    /** Flat index of tile (tx, ty). */
    int
    tileIndex(int tx, int ty) const
    {
        return ty * tilesX_ + tx;
    }

  private:
    int width_;
    int height_;
    int tileSize_;
    int tilesX_;
    int tilesY_;
};

/**
 * Boolean flag per tile of a TileGrid (changed / cloudy / downloaded ...).
 */
class TileMask
{
  public:
    /** Construct an empty mask. */
    TileMask();

    /** Construct a tilesX x tilesY mask, all tiles = fill. */
    TileMask(int tilesX, int tilesY, bool fill = false);

    /** Construct a mask shaped like the given grid. */
    explicit TileMask(const TileGrid &grid, bool fill = false);

    /** Number of tile columns. */
    int tilesX() const { return tilesX_; }

    /** Number of tile rows. */
    int tilesY() const { return tilesY_; }

    /** Total tile count. */
    int count() const { return tilesX_ * tilesY_; }

    /** Tile flag accessor by coordinates. */
    bool get(int tx, int ty) const { return flags_[index(tx, ty)] != 0; }

    /** Tile flag accessor by flat index. */
    bool get(int t) const { return flags_[static_cast<size_t>(t)] != 0; }

    /** Tile flag mutator by coordinates. */
    void set(int tx, int ty, bool v) { flags_[index(tx, ty)] = v ? 1 : 0; }

    /** Tile flag mutator by flat index. */
    void set(int t, bool v) { flags_[static_cast<size_t>(t)] = v ? 1 : 0; }

    /** Number of set tiles. */
    int countSet() const;

    /** Fraction of set tiles in [0, 1] (0 when empty). */
    double fractionSet() const;

    /** Set every flag. */
    void fill(bool v);

    /** In-place union (same shape required). */
    void orWith(const TileMask &other);

    /** In-place intersection (same shape required). */
    void andWith(const TileMask &other);

    /** In-place difference: this &= ~other. */
    void subtract(const TileMask &other);

    /** In-place complement. */
    void invert();

    /** True when shapes match. */
    bool sameShape(const TileMask &other) const;

  private:
    int tilesX_;
    int tilesY_;
    std::vector<uint8_t> flags_;

    size_t
    index(int tx, int ty) const
    {
        return static_cast<size_t>(ty) * static_cast<size_t>(tilesX_) +
               static_cast<size_t>(tx);
    }
};

/**
 * Per-tile fraction of set pixels in a per-pixel mask.
 *
 * Used to turn pixel-level cloud masks into tile-level cloudiness.
 *
 * @param mask Per-pixel mask.
 * @param grid Tile grid matching the mask dimensions.
 * @return One fraction in [0, 1] per tile, indexed by flat tile index.
 */
std::vector<double> tileFractions(const Bitmap &mask, const TileGrid &grid);

/**
 * Threshold per-tile fractions into a TileMask.
 *
 * @param mask Per-pixel mask.
 * @param grid Tile grid matching the mask dimensions.
 * @param minFraction Tile is set when its set-pixel fraction exceeds this.
 */
TileMask tileMaskFromBitmap(const Bitmap &mask, const TileGrid &grid,
                            double minFraction);

/**
 * Copy every tile set in `tiles` from `src` into `dst`.
 *
 * @param dst Plane to paste into.
 * @param src Plane of the same size to copy from.
 * @param tiles Tiles to copy, shaped like the grid `tileSize` induces.
 * @param tileSize Tile edge length in pixels.
 */
void pasteTiles(Plane &dst, const Plane &src, const TileMask &tiles,
                int tileSize);

} // namespace earthplus::raster

#endif // EARTHPLUS_RASTER_TILE_HH

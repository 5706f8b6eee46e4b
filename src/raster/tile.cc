#include "raster/tile.hh"

#include <algorithm>

#include "util/logging.hh"

namespace earthplus::raster {

TileGrid::TileGrid(int width, int height, int tileSize)
    : width_(width), height_(height), tileSize_(tileSize)
{
    EP_ASSERT(width >= 0 && height >= 0, "invalid grid %dx%d",
              width, height);
    EP_ASSERT(tileSize > 0, "invalid tile size %d", tileSize);
    tilesX_ = (width + tileSize - 1) / tileSize;
    tilesY_ = (height + tileSize - 1) / tileSize;
}

TileRect
TileGrid::rect(int tx, int ty) const
{
    EP_ASSERT(tx >= 0 && tx < tilesX_ && ty >= 0 && ty < tilesY_,
              "tile (%d,%d) out of range", tx, ty);
    TileRect r;
    r.x0 = tx * tileSize_;
    r.y0 = ty * tileSize_;
    r.width = std::min(tileSize_, width_ - r.x0);
    r.height = std::min(tileSize_, height_ - r.y0);
    return r;
}

TileRect
TileGrid::rect(int t) const
{
    EP_ASSERT(t >= 0 && t < tileCount(), "tile %d out of range", t);
    return rect(t % tilesX_, t / tilesX_);
}

TileMask::TileMask()
    : tilesX_(0), tilesY_(0)
{
}

TileMask::TileMask(int tilesX, int tilesY, bool fill)
    : tilesX_(tilesX), tilesY_(tilesY)
{
    EP_ASSERT(tilesX >= 0 && tilesY >= 0, "invalid mask %dx%d",
              tilesX, tilesY);
    flags_.assign(static_cast<size_t>(tilesX) * static_cast<size_t>(tilesY),
                  fill ? 1 : 0);
}

TileMask::TileMask(const TileGrid &grid, bool fill)
    : TileMask(grid.tilesX(), grid.tilesY(), fill)
{
}

int
TileMask::countSet() const
{
    int n = 0;
    for (uint8_t f : flags_)
        n += f;
    return n;
}

double
TileMask::fractionSet() const
{
    if (flags_.empty())
        return 0.0;
    return static_cast<double>(countSet()) /
           static_cast<double>(flags_.size());
}

void
TileMask::fill(bool v)
{
    std::fill(flags_.begin(), flags_.end(), v ? 1 : 0);
}

void
TileMask::orWith(const TileMask &other)
{
    EP_ASSERT(sameShape(other), "tile mask shape mismatch");
    for (size_t i = 0; i < flags_.size(); ++i)
        flags_[i] |= other.flags_[i];
}

void
TileMask::andWith(const TileMask &other)
{
    EP_ASSERT(sameShape(other), "tile mask shape mismatch");
    for (size_t i = 0; i < flags_.size(); ++i)
        flags_[i] &= other.flags_[i];
}

void
TileMask::subtract(const TileMask &other)
{
    EP_ASSERT(sameShape(other), "tile mask shape mismatch");
    for (size_t i = 0; i < flags_.size(); ++i)
        flags_[i] = flags_[i] & static_cast<uint8_t>(!other.flags_[i]);
}

void
TileMask::invert()
{
    for (auto &f : flags_)
        f = f ? 0 : 1;
}

bool
TileMask::sameShape(const TileMask &other) const
{
    return tilesX_ == other.tilesX_ && tilesY_ == other.tilesY_;
}

std::vector<double>
tileFractions(const Bitmap &mask, const TileGrid &grid)
{
    std::vector<double> fractions(static_cast<size_t>(grid.tileCount()),
                                  0.0);
    for (int t = 0; t < grid.tileCount(); ++t) {
        TileRect r = grid.rect(t);
        size_t set = 0;
        for (int y = r.y0; y < r.y0 + r.height; ++y)
            for (int x = r.x0; x < r.x0 + r.width; ++x)
                set += mask.get(x, y) ? 1 : 0;
        size_t total = static_cast<size_t>(r.width) *
                       static_cast<size_t>(r.height);
        fractions[static_cast<size_t>(t)] =
            total ? static_cast<double>(set) / static_cast<double>(total)
                  : 0.0;
    }
    return fractions;
}

TileMask
tileMaskFromBitmap(const Bitmap &mask, const TileGrid &grid,
                   double minFraction)
{
    TileMask out(grid);
    auto fractions = tileFractions(mask, grid);
    for (int t = 0; t < grid.tileCount(); ++t)
        out.set(t, fractions[static_cast<size_t>(t)] > minFraction);
    return out;
}

void
pasteTiles(Plane &dst, const Plane &src, const TileMask &tiles,
           int tileSize)
{
    EP_ASSERT(dst.sameShape(src),
              "tile paste shape mismatch (%dx%d vs %dx%d)", src.width(),
              src.height(), dst.width(), dst.height());
    TileGrid grid(dst.width(), dst.height(), tileSize);
    EP_ASSERT(grid.tilesX() == tiles.tilesX() &&
              grid.tilesY() == tiles.tilesY(),
              "tile paste mask mismatch (%dx%d vs %dx%d)", tiles.tilesX(),
              tiles.tilesY(), grid.tilesX(), grid.tilesY());
    for (int t = 0; t < grid.tileCount(); ++t) {
        if (!tiles.get(t))
            continue;
        TileRect r = grid.rect(t);
        for (int y = r.y0; y < r.y0 + r.height; ++y)
            std::copy(src.row(y) + r.x0, src.row(y) + r.x0 + r.width,
                      dst.row(y) + r.x0);
    }
}

} // namespace earthplus::raster

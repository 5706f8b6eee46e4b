/**
 * @file
 * Per-pixel boolean mask (e.g. cloud masks, validity masks).
 */

#ifndef EARTHPLUS_RASTER_BITMAP_HH
#define EARTHPLUS_RASTER_BITMAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace earthplus::raster {

/**
 * A width x height boolean raster stored as one byte per pixel.
 */
class Bitmap
{
  public:
    /** Construct an empty (0x0) bitmap. */
    Bitmap();

    /** Construct a bitmap of the given size, all pixels = fill. */
    Bitmap(int width, int height, bool fill = false);

    /** Width in pixels. */
    int width() const { return width_; }

    /** Height in pixels. */
    int height() const { return height_; }

    /** Total pixel count. */
    size_t size() const { return data_.size(); }

    /** True when the bitmap holds no pixels. */
    bool empty() const { return data_.empty(); }

    /** Pixel accessor. */
    bool get(int x, int y) const { return data_[index(x, y)] != 0; }

    /** Pixel mutator. */
    void set(int x, int y, bool v) { data_[index(x, y)] = v ? 1 : 0; }

    /** Number of set pixels. */
    size_t countSet() const;

    /** Fraction of set pixels in [0, 1] (0 when empty). */
    double fractionSet() const;

    /** Set every pixel. */
    void fill(bool v);

    /** In-place union with another same-sized bitmap. */
    void orWith(const Bitmap &other);

    /** In-place intersection with another same-sized bitmap. */
    void andWith(const Bitmap &other);

    /** In-place complement. */
    void invert();

    /** Raw storage, row-major, one byte per pixel. */
    const std::vector<uint8_t> &data() const { return data_; }

    /** Row `y`'s bytes (0 or 1 each), for whole-row writes. */
    uint8_t *row(int y) { return data_.data() + index(0, y); }

  private:
    int width_;
    int height_;
    std::vector<uint8_t> data_;

    size_t
    index(int x, int y) const
    {
        return static_cast<size_t>(y) * static_cast<size_t>(width_) +
               static_cast<size_t>(x);
    }
};

} // namespace earthplus::raster

#endif // EARTHPLUS_RASTER_BITMAP_HH

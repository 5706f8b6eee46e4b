#include "codec/dwt.hh"

#include <utility>

#include "codec/kernels.hh"
#include "util/logging.hh"

namespace earthplus::codec {

namespace {

/**
 * The per-level sizes a multi-level transform visits: each level is
 * one kernel-table call that transforms the active top-left rectangle
 * in place, rows then columns forward (columns in vector-width
 * batches) and the exact mirror on the inverse.
 */
std::vector<std::pair<int, int>>
levelSizes(const std::vector<float> &data, int width, int height,
           int levels)
{
    EP_ASSERT(static_cast<size_t>(width) * static_cast<size_t>(height) ==
              data.size(), "dwt buffer size mismatch");
    EP_ASSERT(levels >= 0, "negative dwt levels");
    std::vector<std::pair<int, int>> sizes;
    int w = width, h = height;
    for (int l = 0; l < levels && (w > 1 || h > 1); ++l) {
        sizes.emplace_back(w, h);
        w = (w + 1) / 2;
        h = (h + 1) / 2;
    }
    return sizes;
}

} // anonymous namespace

void
forwardDwt97(std::vector<float> &data, int width, int height, int levels)
{
    const kernels::KernelTable &k = kernels::active();
    for (const auto &[w, h] : levelSizes(data, width, height, levels))
        k.fwd97(data.data(), width, w, h);
}

void
inverseDwt97(std::vector<float> &data, int width, int height, int levels)
{
    const kernels::KernelTable &k = kernels::active();
    const auto sizes = levelSizes(data, width, height, levels);
    for (auto it = sizes.rbegin(); it != sizes.rend(); ++it)
        k.inv97(data.data(), width, it->first, it->second);
}

std::vector<uint8_t>
subbandOrientation(int width, int height, int levels)
{
    std::vector<uint8_t> orient(
        static_cast<size_t>(width) * static_cast<size_t>(height), 0);
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            int w = width, h = height;
            uint8_t code = 0; // LL if the walk bottoms out
            for (int l = 0; l < levels && (w > 1 || h > 1); ++l) {
                int lw = (w + 1) / 2;
                int lh = (h + 1) / 2;
                bool inLow_x = x < lw;
                bool inLow_y = y < lh;
                if (inLow_x && inLow_y) {
                    w = lw;
                    h = lh;
                    continue;
                }
                if (!inLow_x && inLow_y)
                    code = 1; // HL
                else if (inLow_x && !inLow_y)
                    code = 2; // LH
                else
                    code = 3; // HH
                break;
            }
            orient[static_cast<size_t>(y) * width + x] = code;
        }
    }
    return orient;
}

} // namespace earthplus::codec

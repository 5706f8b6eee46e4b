#include "raster/io.hh"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <vector>

namespace earthplus::raster {

bool
savePgm(const Plane &plane, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    os << "P5\n" << plane.width() << " " << plane.height() << "\n255\n";
    std::vector<uint8_t> row(static_cast<size_t>(plane.width()));
    for (int y = 0; y < plane.height(); ++y) {
        const float *src = plane.row(y);
        for (int x = 0; x < plane.width(); ++x) {
            float v = std::clamp(src[x], 0.0f, 1.0f);
            row[static_cast<size_t>(x)] =
                static_cast<uint8_t>(v * 255.0f + 0.5f);
        }
        os.write(reinterpret_cast<const char *>(row.data()),
                 static_cast<std::streamsize>(row.size()));
    }
    return static_cast<bool>(os);
}

} // namespace earthplus::raster

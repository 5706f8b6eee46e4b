/**
 * @file
 * Ground-segment query CLI: serve a tile rectangle from an encoded
 * archive (a sharded archive directory).
 *
 *   ground_query --demo archive.epar
 *       Build a small demonstration archive (full download at day 1,
 *       deltas at days 2 and 3 for location 0, band 0).
 *
 *   ground_query archive.epar <locationId> <day> <band> <x> <y> <w> <h>
 *       Resolve the delta chain, decode only the tiles intersecting
 *       the rectangle, print serving stats and write the pixels to
 *       ground_query_out.pgm.
 *
 * Example:
 *   ./ground_query --demo demo.epar
 *   ./ground_query demo.epar 0 2.5 0 64 64 128 128
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "codec/codec.hh"
#include "ground/archive.hh"
#include "ground/tile_server.hh"
#include "raster/io.hh"
#include "raster/tile.hh"
#include "synth/dataset.hh"
#include "synth/scene.hh"
#include "util/rng.hh"

using namespace earthplus;
using namespace earthplus::ground;

namespace {

int
buildDemo(const std::string &path)
{
    constexpr int kSize = 256;
    constexpr int kTileSize = 64;

    // Scene content from the synthetic dataset so the imagery looks
    // plausible rather than random.
    synth::DatasetSpec spec = synth::richContentDataset(kSize, kSize);
    synth::SceneConfig sc;
    sc.width = kSize;
    sc.height = kSize;
    sc.bands = spec.bands;
    synth::SceneModel scene(spec.locations[5], sc); // city

    Archive archive(path);
    codec::EncodeParams ep;
    ep.bitsPerPixel = 2.0;
    ep.tileSize = kTileSize;

    RecordMeta meta;
    meta.locationId = 0;
    meta.band = 0;
    meta.captureDay = 1.0;
    meta.fullDownload = true;
    archive.append(meta,
                   codec::encode(scene.groundTruth(200.0, 3), ep)
                       .serialize());

    // Two deltas: later scene states, random ~25% of tiles re-coded.
    raster::TileGrid grid(kSize, kSize, kTileSize);
    Rng rng(0xde30);
    for (int d = 0; d < 2; ++d) {
        raster::TileMask roi(grid);
        for (int t = 0; t < grid.tileCount(); ++t)
            roi.set(t, rng.bernoulli(0.25));
        codec::EncodeParams dp = ep;
        dp.roi = &roi;
        RecordMeta dm = meta;
        dm.captureDay = 2.0 + d;
        dm.fullDownload = false;
        dm.referenceDay = 1.0;
        archive.append(
            dm,
            codec::encode(scene.groundTruth(210.0 + 10.0 * d, 3), dp)
                .serialize());
    }

    std::cout << "wrote " << archive.recordCount() << " records ("
              << archive.fileBytes() << " bytes) to " << path << "\n"
              << "try: ground_query " << path << " 0 2.5 0 64 64 128 128\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::string(argv[1]) == "--demo")
        return buildDemo(argv[2]);
    if (argc != 9) {
        std::cerr << "usage: " << argv[0]
                  << " --demo <archive>\n       " << argv[0]
                  << " <archive> <locationId> <day> <band> <x> <y> <w>"
                     " <h>\n";
        return 1;
    }

    Archive archive(argv[1]);
    if (archive.scanReport().truncatedTail)
        std::cerr << "note: recovered " << archive.recordCount()
                  << " records from a corrupt tail\n";
    if (archive.recordCount() == 0) {
        std::cerr << "archive is empty\n";
        return 1;
    }

    TileQuery q;
    q.locationId = std::atoi(argv[2]);
    q.day = std::atof(argv[3]);
    q.band = std::atoi(argv[4]);
    q.x0 = std::atoi(argv[5]);
    q.y0 = std::atoi(argv[6]);
    q.width = std::atoi(argv[7]);
    q.height = std::atoi(argv[8]);

    TileServer server(archive);
    TileResult r = server.serve(q);
    if (!r.ok()) {
        std::cerr << "serve failed (" << serveErrorName(r.error)
                  << ") for location " << q.locationId << " band "
                  << q.band << " at day " << q.day << "\n";
        return 1;
    }

    std::cout << "served " << r.pixels.width() << "x"
              << r.pixels.height() << " px as of day " << r.servedDay
              << " (" << r.tilesDecoded << " tiles decoded, "
              << r.tilesFromCache << " from cache)\n";
    const char *out = "ground_query_out.pgm";
    if (raster::savePgm(r.pixels, out))
        std::cout << "pixels written to " << out << "\n";
    return 0;
}

/**
 * @file
 * Codec playground: the wavelet codec on its own — rate sweep, cutting
 * one stream to smaller budgets, region-of-interest coding, and an ROI
 * stream decoded tile by tile at half its bytes the way the ground tile
 * server serves a quality hint. Writes PGM snapshots next to the binary so
 * results can be eyeballed.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "codec/codec.hh"
#include "raster/io.hh"
#include "raster/metrics.hh"
#include "synth/dataset.hh"
#include "synth/scene.hh"
#include "util/table.hh"

using namespace earthplus;

int
main()
{
    // A realistic test image: one band of a synthetic scene.
    synth::DatasetSpec spec = synth::richContentDataset(256, 256);
    synth::SceneConfig sc;
    sc.width = 256;
    sc.height = 256;
    sc.bands = spec.bands;
    synth::SceneModel scene(spec.locations[5], sc); // city
    raster::Plane img = scene.groundTruth(200.0, 3); // B4 (red)
    raster::savePgm(img, "codec_original.pgm");

    Table rate("Rate sweep (CDF 9/7, 64x64 tiles)");
    rate.setHeader({"bpp target", "bpp actual", "PSNR (dB)"});
    for (double bpp : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        codec::EncodeParams p;
        p.bitsPerPixel = bpp;
        codec::EncodedImage enc = codec::encode(img, p);
        raster::Plane dec = codec::decode(enc);
        rate.addRow({Table::num(bpp, 2),
                     Table::num(8.0 * enc.totalBytes() / (256.0 * 256.0),
                                2),
                     Table::num(raster::psnr(img, dec), 2)});
        if (bpp == 0.5)
            raster::savePgm(dec, "codec_lossy_0.5bpp.pgm");
    }
    rate.print(std::cout);

    // Post-encode rate control: one stream, cut to a ladder of budgets.
    // Every cut drops each tile's lowest planes first, so the worst
    // 64-row strip tracks the whole image instead of going blank.
    codec::EncodeParams lp;
    lp.bitsPerPixel = 3.0;
    std::vector<uint8_t> stream = codec::encode(img, lp).serialize();
    Table cuts("Cutting one encoded stream (codec::truncateStream)");
    cuts.setHeader(
        {"Budget", "Bytes", "PSNR (dB)", "Worst 64-row band (dB)"});
    for (int pct : {10, 25, 50, 75, 100}) {
        std::vector<uint8_t> cut =
            codec::truncateStream(stream, stream.size() * pct / 100);
        raster::Plane dec =
            codec::decode(codec::EncodedImage::deserialize(cut));
        cuts.addRow({std::to_string(pct) + "%",
                     Table::num(static_cast<double>(cut.size()), 0),
                     Table::num(raster::psnr(img, dec), 2),
                     Table::num(raster::worstBandPsnr(img, dec, 64), 2)});
    }
    cuts.print(std::cout);

    // Region of interest: only the image centre is coded.
    raster::TileGrid grid(256, 256, 64);
    raster::TileMask roi(grid);
    roi.set(grid.tileIndex(1, 1), true);
    roi.set(grid.tileIndex(2, 1), true);
    roi.set(grid.tileIndex(1, 2), true);
    roi.set(grid.tileIndex(2, 2), true);
    codec::EncodeParams rp;
    rp.bitsPerPixel = 2.0;
    rp.roi = &roi;
    codec::EncodedImage renc = codec::encode(img, rp);
    raster::savePgm(codec::decode(renc), "codec_roi.pgm");
    std::printf("ROI: %d of %d tiles coded, %zu bytes "
                "(vs %zu for the full image)\n\n",
                roi.countSet(), grid.tileCount(), renc.totalBytes(),
                codec::encode(img, codec::EncodeParams{}).totalBytes());

    // ROI and budget together, as the tile server answers a quality
    // hint: decoding the ROI stream at half its bytes keeps every coded
    // tile down to a common plane, exactly as decoding its tile-fair
    // cut would, without building the cut; only the ROI tiles are
    // decoded.
    const size_t halfBudget = renc.totalBytes() / 2;
    std::vector<int> roiTiles;
    for (int t = 0; t < grid.tileCount(); ++t)
        if (roi.get(t))
            roiTiles.push_back(t);
    std::vector<raster::Plane> whole = codec::decodeTiles(renc, roiTiles);
    std::vector<raster::Plane> half =
        codec::decodeTiles(renc, roiTiles, halfBudget);
    Table roiCuts("ROI tiles: whole stream (" +
                  std::to_string(renc.totalBytes()) + " B) vs decoded at " +
                  std::to_string(halfBudget) + " B");
    roiCuts.setHeader({"Tile", "PSNR whole (dB)", "PSNR at half (dB)"});
    for (size_t i = 0; i < roiTiles.size(); ++i) {
        raster::TileRect r = grid.rect(roiTiles[i]);
        raster::Plane src = img.crop(r.x0, r.y0, r.width, r.height);
        roiCuts.addRow({std::to_string(roiTiles[i]),
                        Table::num(raster::psnr(src, whole[i]), 2),
                        Table::num(raster::psnr(src, half[i]), 2)});
    }
    roiCuts.print(std::cout);
    std::printf("wrote codec_original.pgm, codec_lossy_0.5bpp.pgm, "
                "codec_roi.pgm\n");
    return 0;
}

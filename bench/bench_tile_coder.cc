/**
 * @file
 * End-to-end tile-coder throughput: full `encodeTile` /
 * `decodeTile` jobs (DWT + quantization + bitplane passes +
 * range coding, EPC5 framing) measured at every SIMD dispatch level,
 * for the two workloads that bracket Earth+'s operating points:
 *
 *   dense        natural-image-like content, every subband busy
 *   sparse_delta mostly mid-gray change-delta tiles with a few change
 *                clusters — the common case for Earth+'s delta encoding
 *
 * Prints one row per (direction, workload, level) with median wall-ms
 * and MB/s (pixel bytes per second), and with `--json <path>` emits
 * BENCH_tile_coder.json for ci/perf_gate.py.
 *
 * With `--progressive` the binary measures the post-encode rate
 * control path instead: one dense 512x512 image is encoded once with
 * 64-px tiles, cut with codec::truncateStream() at a ladder of byte
 * budgets, and each cut decoded — emitting the rate–distortion rows
 * (progressive_rd/p{pct}: whole-image psnr_db, the worst 64-row band's
 * worst_band_db and decode ms per budget) plus a truncate_stream
 * throughput row (MB/s of the cut itself). The JSON
 * bench name is "tile_coder_progressive"; all rows are informational
 * (recorded, not gated — see docs/BENCHMARKS.md).
 *
 * Flags: --json <path>, --reps <n>, --edge <pixels>, --progressive.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "codec/codec.hh"
#include "codec/kernels.hh"
#include "codec/tile_coder.hh"
#include "raster/metrics.hh"
#include "util/rng.hh"
#include "util/simd.hh"

using namespace earthplus;
using namespace earthplus::codec;
using util::simd::Level;

namespace {

/** DWT levels of every tile job: EncodeParams' default. */
constexpr int kDwtLevels = 4;

/** Natural-image-like tile content, libm-free and fully deterministic. */
raster::Plane
denseTile(int w, int h, uint64_t seed)
{
    raster::Plane p(w, h);
    Rng rng(seed);
    // Smooth block structure + per-pixel noise: enough subband energy
    // to keep every coding pass busy on every plane.
    const int block = 8;
    int bw = (w + block - 1) / block;
    int bh = (h + block - 1) / block;
    std::vector<float> blocks(static_cast<size_t>(bw) * bh);
    for (auto &v : blocks)
        v = static_cast<float>(rng.uniform());
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
            float base = blocks[static_cast<size_t>(y / block) * bw +
                                static_cast<size_t>(x / block)];
            float grad = static_cast<float>(x + 2 * y) /
                         static_cast<float>(w + 2 * h);
            float noise = static_cast<float>(rng.uniform()) * 0.1f;
            p.at(x, y) = 0.25f + 0.4f * base + 0.25f * grad + noise;
        }
    return p;
}

/**
 * Change-delta tile: mid-gray (no change) everywhere except a few
 * small change clusters, mirroring the delta mapping the Earth+
 * systems layer feeds the codec.
 */
raster::Plane
sparseDeltaTile(int w, int h, uint64_t seed)
{
    raster::Plane p(w, h, 0.5f);
    Rng rng(seed);
    int clusters = std::max(1, (w * h) / 4096);
    for (int c = 0; c < clusters; ++c) {
        int cx = static_cast<int>(rng.uniformInt(0, w - 1));
        int cy = static_cast<int>(rng.uniformInt(0, h - 1));
        int r = static_cast<int>(rng.uniformInt(2, 5));
        float amp = static_cast<float>(rng.uniform(-0.3, 0.3));
        for (int y = std::max(0, cy - r);
             y < std::min(h, cy + r + 1); ++y)
            for (int x = std::max(0, cx - r);
                 x < std::min(w, cx + r + 1); ++x)
                p.at(x, y) = 0.5f + amp;
    }
    return p;
}

double
medianMs(int reps, const std::function<void()> &fn)
{
    std::vector<double> times;
    times.reserve(static_cast<size_t>(reps));
    fn(); // warm-up
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        times.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

struct WorkloadCase
{
    const char *name;
    std::vector<raster::Plane> tiles;
    size_t byteBudget; ///< Per tile.
};

/**
 * Progressive rate-control mode: the rate–distortion curve of cutting
 * one encoded stream at a ladder of byte budgets, plus the throughput
 * of the cut itself. Everything here is informational: PSNR depends
 * only on the codec (deterministic), and truncateStream is a memcpy-
 * class operation no host gate would measure meaningfully.
 */
int
runProgressiveMode(int reps, const std::string &jsonPath)
{
    using Params = std::vector<std::pair<std::string, std::string>>;
    // A 64-tile image so the cut allocates across tiles; the worst
    // 64-row band shows whether any strip of tiles is starved.
    const int size = 512, tile = 64;
    raster::Plane img = denseTile(size, size, 500);
    codec::EncodeParams ep;
    ep.bitsPerPixel = 2.0;
    ep.tileSize = tile;
    std::vector<uint8_t> stream = codec::encode(img, ep).serialize();
    size_t floor = codec::streamHeaderFloor(stream);
    const Params shape = {{"image", std::to_string(size)},
                          {"tile", std::to_string(tile)}};

    Table table("progressive (EPC5) rate-distortion: PSNR vs budget");
    table.setHeader({"row", "budget_pct", "bytes", "psnr_db",
                     "worst_band_db", "decode_ms"});
    epbench::JsonReporter json("tile_coder_progressive");

    const int percents[] = {5, 10, 25, 50, 75, 100};
    for (int pct : percents) {
        size_t budget = std::max(
            floor, stream.size() * static_cast<size_t>(pct) / 100);
        std::vector<uint8_t> cut = codec::truncateStream(stream, budget);
        raster::Plane dec = codec::decode(
            codec::EncodedImage::deserialize(cut.data(), cut.size()));
        double psnr = raster::psnr(img, dec);
        double worstBand = raster::worstBandPsnr(img, dec, tile);
        double decMs = medianMs(reps, [&]() {
            codec::decode(
                codec::EncodedImage::deserialize(cut.data(), cut.size()));
        });
        std::string name = "progressive_rd/p" + std::to_string(pct);
        table.addRow({name, std::to_string(pct),
                      std::to_string(cut.size()), Table::num(psnr, 2),
                      Table::num(worstBand, 2), Table::num(decMs, 3)});
        Params params = shape;
        params.push_back({"budget_pct", std::to_string(pct)});
        json.add(name, params, decMs, 0.0,
                 {{"psnr_db", psnr},
                  {"worst_band_db", worstBand},
                  {"bytes", static_cast<double>(cut.size())}});
    }

    // truncateStream throughput: bytes of input scanned per second
    // across the whole budget ladder (informational, no gate).
    double cutMs = medianMs(reps, [&]() {
        for (int pct : percents)
            codec::truncateStream(
                stream,
                std::max(floor, stream.size() *
                                    static_cast<size_t>(pct) / 100));
    });
    double cutMbps = static_cast<double>(stream.size()) *
                     (sizeof(percents) / sizeof(percents[0])) /
                     (cutMs * 1e-3) / 1e6;
    table.addRow({"truncate_stream", "-", std::to_string(stream.size()),
                  "-", "-", Table::num(cutMs, 3)});
    Params params = shape;
    params.push_back(
        {"cuts", std::to_string(sizeof(percents) / sizeof(percents[0]))});
    json.add("truncate_stream", params, cutMs, cutMbps);

    table.print(std::cout);
    if (!jsonPath.empty() && !json.write(jsonPath)) {
        std::cerr << "failed to write " << jsonPath << "\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    int reps = 11;
    int edge = 128;
    bool progressive = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
            reps = std::max(1, std::atoi(argv[i + 1]));
        if (std::strcmp(argv[i], "--edge") == 0 && i + 1 < argc)
            edge = std::max(16, std::atoi(argv[i + 1]));
        if (std::strcmp(argv[i], "--progressive") == 0)
            progressive = true;
    }
    std::string jsonPath = epbench::JsonReporter::pathFromArgs(argc, argv);
    if (progressive) {
        int rc = runProgressiveMode(reps, jsonPath);
        epbench::writeMetricsSnapshot(argc, argv);
        return rc;
    }

    const int tilesPerRep = 8;
    // 2 bpp for dense content; sparse tiles use far less by themselves.
    size_t budget = static_cast<size_t>(edge) * edge * 2 / 8;

    std::vector<WorkloadCase> cases;
    {
        WorkloadCase dense;
        dense.name = "dense";
        dense.byteBudget = budget;
        for (int t = 0; t < tilesPerRep; ++t)
            dense.tiles.push_back(
                denseTile(edge, edge, 100 + static_cast<uint64_t>(t)));
        cases.push_back(std::move(dense));

        WorkloadCase sparse;
        sparse.name = "sparse_delta";
        sparse.byteBudget = budget;
        for (int t = 0; t < tilesPerRep; ++t)
            sparse.tiles.push_back(
                sparseDeltaTile(edge, edge, 200 + static_cast<uint64_t>(t)));
        cases.push_back(std::move(sparse));
    }

    Table table("tile coder end-to-end throughput per dispatch level");
    table.setHeader({"direction", "workload", "level", "median_ms",
                     "MB/s", "speedup"});
    epbench::JsonReporter json("tile_coder");
    Level prev = util::simd::activeLevel();
    size_t tileBytes =
        static_cast<size_t>(edge) * edge * sizeof(float) * tilesPerRep;

    for (const WorkloadCase &c : cases) {
        std::map<std::string, double> scalarMs;
        for (Level level : kernels::availableLevels()) {
            util::simd::setActiveLevel(level);
            const char *levelName = util::simd::levelName(level);

            // Encode: full tile jobs, sub-chunks thrown away.
            double encMs = medianMs(reps, [&]() {
                for (const raster::Plane &t : c.tiles)
                    encodeTile(t, kDwtLevels, c.byteBudget);
            });

            // Decode: pre-encode once outside the timed region.
            std::vector<std::vector<uint8_t>> subs;
            for (const raster::Plane &t : c.tiles)
                subs.push_back(encodeTile(t, kDwtLevels, c.byteBudget));
            double decMs = medianMs(reps, [&]() {
                for (const auto &sub : subs)
                    decodeTile(edge, edge, kDwtLevels,
                               {sub.data(), sub.size()});
            });

            auto report = [&](const char *dir, double ms) {
                // Row names carry the workload so ci/perf_gate.py can
                // key every (row, level) pair uniquely.
                std::string key = std::string(dir) + "/" + c.name;
                if (level == Level::Scalar)
                    scalarMs[key] = ms;
                double mbps =
                    static_cast<double>(tileBytes) / (ms * 1e-3) / 1e6;
                double speedup =
                    scalarMs.count(key) ? scalarMs[key] / ms : 0.0;
                table.addRow({dir, c.name, levelName, Table::num(ms, 3),
                              Table::num(mbps, 1),
                              Table::num(speedup, 2) + "x"});
                json.add(key,
                         {{"level", levelName},
                          {"edge", std::to_string(edge)},
                          {"tiles", std::to_string(tilesPerRep)}},
                         ms, mbps);
            };
            report("tile_encode", encMs);
            report("tile_decode", decMs);
        }
    }
    util::simd::setActiveLevel(prev);

    table.print(std::cout);
    if (!json.write(jsonPath)) {
        std::cerr << "failed to write " << jsonPath << "\n";
        return 1;
    }
    epbench::writeMetricsSnapshot(argc, argv);
    return 0;
}

/**
 * @file
 * Per-kernel throughput of the vectorized codec hot paths and of the
 * dispatched CRC-32 (util/crc32.hh), measured at every dispatch level
 * available on this machine.
 *
 * Prints one row per (kernel, level) with median wall-ms and MB/s plus
 * the speedup over the scalar table (the `crc32` row's scalar level is
 * slicing-by-8, its AVX2 level the PCLMULQDQ fold), and with
 * `--json <path>` emits
 * the machine-readable BENCH_codec_kernels.json that ci/perf_gate.py
 * diffs against the checked-in baseline.
 *
 * Flags: --json <path>, --reps <n>, --edge <pixels>.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "codec/dwt.hh"
#include "codec/kernels.hh"
#include "util/crc32.hh"
#include "util/rng.hh"
#include "util/simd.hh"

using namespace earthplus;
using namespace earthplus::codec;
using util::simd::Level;

namespace {

struct Workload
{
    int edge = 1024;
    std::vector<float> pixels;    ///< [0,1) pixel-like values
    std::vector<float> fcoeffs;   ///< centered float coefficients
    std::vector<uint32_t> mag;
    std::vector<uint8_t> sign;
    std::vector<uint8_t> low;

    size_t
    n() const
    {
        return static_cast<size_t>(edge) * static_cast<size_t>(edge);
    }
};

Workload
makeWorkload(int edge)
{
    Workload w;
    w.edge = edge;
    size_t n = static_cast<size_t>(edge) * static_cast<size_t>(edge);
    w.pixels.resize(n);
    w.fcoeffs.resize(n);
    w.mag.resize(n);
    w.sign.resize(n);
    w.low.resize(n);
    Rng rng(1234);
    for (size_t i = 0; i < n; ++i) {
        w.pixels[i] = static_cast<float>(rng.uniform());
        w.fcoeffs[i] = static_cast<float>(rng.normal(0.0, 0.2));
        w.mag[i] = rng.uniformInt(0, 3) == 0
            ? 0u
            : static_cast<uint32_t>(rng.uniformInt(1, 1 << 16));
        w.sign[i] = static_cast<uint8_t>(rng.uniformInt(0, 1));
        w.low[i] = static_cast<uint8_t>(rng.uniformInt(0, 12));
    }
    return w;
}

/**
 * Median wall-clock milliseconds of `reps` timed runs of `fn`;
 * `setup` (input-buffer refresh for in-place transforms) runs before
 * each rep, outside the timed region.
 */
double
medianMs(int reps, const std::function<void()> &setup,
         const std::function<void()> &fn)
{
    std::vector<double> times;
    times.reserve(static_cast<size_t>(reps));
    setup();
    fn(); // warm-up: page in buffers, prime the pool and caches
    for (int r = 0; r < reps; ++r) {
        setup();
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        times.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

struct KernelCase
{
    const char *name;
    /** Bytes touched per run (for MB/s). */
    size_t bytes;
    /** Untimed per-rep input refresh (may be empty). */
    std::function<void()> setup;
    /** Runs the kernel once via the given table. */
    std::function<void(const kernels::KernelTable &)> run;
};

} // namespace

int
main(int argc, char **argv)
{
    int reps = 11;
    int edge = 1024;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--reps") == 0)
            reps = std::max(1, std::atoi(argv[i + 1]));
        if (std::strcmp(argv[i], "--edge") == 0)
            edge = std::max(64, std::atoi(argv[i + 1]));
    }
    std::string jsonPath = epbench::JsonReporter::pathFromArgs(argc, argv);

    Workload w = makeWorkload(edge);
    size_t n = w.n();
    const int dwtLevels = 4;

    // Scratch copies so in-place transforms do not accumulate.
    std::vector<float> fbuf(n);
    std::vector<uint32_t> magOut(n);
    std::vector<uint8_t> signOut(n);

    // The inverse transforms need forward-transformed input: refreshing
    // it from these every rep keeps values bounded (repeated inversion
    // of an un-reset buffer would compound magnitudes without limit).
    std::vector<float> fwd97 = w.fcoeffs;
    forwardDwt97(fwd97, edge, edge, dwtLevels);

    std::function<void()> noSetup = []() {};
    std::vector<KernelCase> cases;
    cases.push_back({"dwt97_fwd", n * 4, [&]() { fbuf = w.fcoeffs; },
                     [&](const kernels::KernelTable &) {
        forwardDwt97(fbuf, w.edge, w.edge, dwtLevels);
    }});
    cases.push_back({"dwt97_inv", n * 4, [&]() { fbuf = fwd97; },
                     [&](const kernels::KernelTable &) {
        inverseDwt97(fbuf, w.edge, w.edge, dwtLevels);
    }});
    cases.push_back({"quant_f32", n * 4, noSetup,
                     [&](const kernels::KernelTable &k) {
        k.quantF32(w.fcoeffs.data(), n, 512.0f, magOut.data(),
                   signOut.data());
    }});
    cases.push_back({"dequant_97", n * 4, noSetup,
                     [&](const kernels::KernelTable &k) {
        k.dequant97(w.mag.data(), w.sign.data(), w.low.data(), n,
                    1.0f / 512.0f, fbuf.data());
    }});
    cases.push_back({"center_f", n * 4, noSetup,
                     [&](const kernels::KernelTable &k) {
        k.centerF(w.pixels.data(), n, fbuf.data());
    }});
    cases.push_back({"uncenter_clamp_f", n * 4, noSetup,
                     [&](const kernels::KernelTable &k) {
        k.uncenterClampF(w.fcoeffs.data(), n, 0.0f, 1.0f, fbuf.data());
    }});
    // CRC-32 over the magnitude buffer's bytes (any bytes will do:
    // the kernel's cost does not depend on their values), through the
    // same active-level dispatch its callers use.
    volatile uint32_t crcSink = 0;
    cases.push_back({"crc32", n * 4, noSetup,
                     [&](const kernels::KernelTable &) {
        crcSink = util::crc32(
            reinterpret_cast<const uint8_t *>(w.mag.data()), n * 4);
    }});

    Table table("codec kernel throughput per dispatch level");
    table.setHeader({"kernel", "level", "median_ms", "MB/s", "speedup"});
    epbench::JsonReporter json("codec_kernels");
    Level prev = util::simd::activeLevel();
    std::map<std::string, double> scalarMs;

    for (const KernelCase &c : cases) {
        for (Level level : kernels::availableLevels()) {
            util::simd::setActiveLevel(level);
            const kernels::KernelTable &k = kernels::active();
            double ms = medianMs(reps, c.setup, [&]() { c.run(k); });
            double mbps =
                static_cast<double>(c.bytes) / (ms * 1e-3) / 1e6;
            const char *levelName = util::simd::levelName(level);
            if (level == Level::Scalar)
                scalarMs[c.name] = ms;
            double speedup =
                scalarMs.count(c.name) ? scalarMs[c.name] / ms : 0.0;
            table.addRow({c.name, levelName, Table::num(ms, 3),
                          Table::num(mbps, 0),
                          Table::num(speedup, 2) + "x"});
            json.add(c.name,
                     {{"level", levelName},
                      {"edge", std::to_string(edge)},
                      {"dwt_levels", std::to_string(dwtLevels)}},
                     ms, mbps);
        }
    }
    util::simd::setActiveLevel(prev);

    table.print(std::cout);
    if (!json.write(jsonPath)) {
        std::cerr << "failed to write " << jsonPath << "\n";
        return 1;
    }
    return 0;
}

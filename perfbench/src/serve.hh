/**
 * @file
 * The serving side of the benchmark: query generators over an archive,
 * the closed-loop cold-serve driver, the open-loop EPT driver with its
 * concurrent archive writer and capacity search, and the bit-for-bit
 * verification every workload ends with.
 */

#ifndef PERFBENCH_SERVE_HH
#define PERFBENCH_SERVE_HH

#include <atomic>
#include <functional>
#include <map>
#include <vector>

#include "bench.hh"
#include "ground/archive.hh"
#include "ground/tile_server.hh"

namespace earthplus::net {
class TileClient;
}

namespace perfbench {

/** Edge of every query rectangle, pixels. */
constexpr int kQueryEdge = 128;

/** One record kept out of the archive until the writer appends it. */
struct HeldRecord
{
    earthplus::ground::RecordMeta meta;
    std::vector<uint8_t> payload;
};

/**
 * What queries may target: per location, the capture days whose
 * records are in the archive (ascending), plus the held-back captures
 * that land while serving.
 */
struct Domain
{
    int imageSize = 0;
    int bands = 0;
    std::vector<int> locations;
    /** Location -> capture days present in the archive, ascending. */
    std::map<int, std::vector<double>> days;
    /** Held-back captures in append order: (location, day). */
    std::vector<std::pair<int, double>> heldCaptures;
};

/** Scan `archive` for the capture days of every location. */
Domain domainOf(const earthplus::ground::Archive &archive, int imageSize,
                int bands);

/** A served query with the pixels it returned. */
struct Served
{
    earthplus::ground::TileQuery query;
    earthplus::raster::Plane pixels;
};

/** Digest of a served rectangle's size and raw pixel bytes. */
uint64_t pixelDigest(const earthplus::raster::Plane &p,
                     uint64_t h = 0xcbf29ce484222325ULL);

/** Outcome of the closed-loop cold-serve phase. */
struct ColdResult
{
    uint64_t completed = 0;
    uint64_t failed = 0;
    double wallSec = 0.0;
    /** Client-side serve() wall times, stamped with completion time. */
    TimedSamples ms;
    std::vector<Served> sample;
    /** Digest of the first kDigestQueries results of every client. */
    uint64_t digest = 0;
};

/** Results per client folded into ColdResult::digest. */
constexpr uint64_t kDigestQueries = 256;

/**
 * `clients` threads call server.serve() back to back for `seconds`,
 * each on its own seeded stream of 128x128 rectangles at a uniform
 * (location, band, day) over the archived history. `tick`, when set,
 * runs on the calling thread about every 250 ms meanwhile.
 */
ColdResult runColdClients(earthplus::ground::TileServer &server,
                          const Domain &domain, uint64_t seed,
                          double seconds, int clients, Layers &layers,
                          const std::function<void()> &tick = {});

/** Outcome of one open-loop phase over EPT. */
struct OpenLoopResult
{
    uint64_t sent = 0;
    uint64_t completed = 0; ///< Responses that were ok().
    uint64_t shed = 0;
    uint64_t failed = 0; ///< Not ok(), shed, or never answered.
    double wallSec = 0.0;
    /** From the scheduled send time (ok() only), stamped with it. */
    TimedSamples latencyMs;
    Samples qualityMs; ///< Latency of quality-hinted queries.
    Samples wireMs;    ///< Latency minus the server's serveNs.
    Samples lateMs;    ///< Sender lateness against the schedule.
    std::vector<Served> sample;
    /** Index in the phase's query stream of each sample entry. */
    std::vector<size_t> sampleIndex;
    uint64_t appends = 0; ///< Held records the writer appended.
};

/** Options of one open-loop phase. */
struct OpenLoopOptions
{
    double rate = 500.0;
    double seconds = 10.0;
    uint64_t seed = 1;
    /** Keep every n-th response for verification (0 = none). */
    int sampleEvery = 0;
    /** Append these held records at an even pace over the phase. */
    std::vector<HeldRecord> *held = nullptr;
    earthplus::ground::Archive *writable = nullptr;
    /** Called about every 250 ms from a helper thread while running. */
    std::function<void()> tick;
    /** Send exactly these queries (at `rate`) instead of the mix. */
    const std::vector<earthplus::ground::TileQuery> *replay = nullptr;
};

/**
 * Over one EPT connection (`client`, reconnected if a failure closed
 * it): the calling thread keeps a
 * Poisson schedule at `opt.rate` and a receiver thread times every
 * response from its scheduled send time. Queries follow the mixed
 * generator: Zipf over locations, forward day-walks and recent days,
 * 25% with quality = 25, and held-back captures once they land.
 */
OpenLoopResult runOpenLoop(earthplus::net::TileClient &client,
                           const Domain &domain,
                           const OpenLoopOptions &opt, Layers &layers);

/** Outcome of the saturation phase. */
struct SaturationResult
{
    double qps = 0.0; ///< ok() responses per wall second.
    uint64_t sent = 0;
    uint64_t failed = 0; ///< Not ok(), shed, or never answered.
};

/**
 * Closed loop on one EPT connection: keep `window` mixed queries in
 * flight for `seconds` (every held capture counts as landed) and report
 * the completion rate, i.e. the offered rate past which the server's
 * backlog would grow.
 */
SaturationResult runSaturation(earthplus::net::TileClient &client,
                               const Domain &domain, double seconds,
                               int window, uint64_t seed);

/** The capacity search's outcome. */
struct CapacityResult
{
    double capacity = 0.0; ///< Highest passing rate (0 when none passed).
    std::vector<std::string> ladder;
};

/**
 * Highest offered rate whose p99 meets `limitMs` with nothing shed or
 * failed and a sender that kept its schedule: doubling from `start`,
 * then bisecting to within 10%.
 */
CapacityResult searchCapacity(earthplus::net::TileClient &client,
                              const Domain &domain,
                              double start, double limitMs,
                              double rungSeconds, uint64_t seed,
                              Layers &layers);

/**
 * Serve `count` seeded probe queries (every 4th quality-hinted) through a
 * TileServer with the shipping defaults, keeping the pixels.
 */
std::vector<Served> probeQueries(const earthplus::ground::Archive &archive,
                                 const Domain &domain, uint64_t seed,
                                 int count, Layers &layers);

/**
 * Re-serve every sample through a cache-less TileServer in process and,
 * as an open-loop replay at 200 queries/s, over EPT loopback; each must
 * return the recorded pixels bit for bit. Returns the replay's
 * open-loop measurements.
 */
OpenLoopResult verifySample(const earthplus::ground::Archive &archive,
                  const std::vector<Served> &sample, Layers &layers,
                  Report &report);

} // namespace perfbench

#endif // PERFBENCH_SERVE_HH

/**
 * @file
 * Ground-segment serving under a multi-client Zipfian load.
 *
 * Builds a sharded on-disk archive of full downloads + deltas for
 * several locations (encode -> serialize -> append, the same bytes a
 * downlink would land) in a fresh directory under $TMPDIR (default
 * /tmp), removed at exit, then drives the TileServer from N concurrent
 * client threads. Each client issues its own deterministic query
 * stream: locations drawn from a Zipf(1.1) popularity law (a few hot
 * locations dominate, the tail stays warm — the distribution a
 * production tile service sees) and days walked mostly forward
 * (exercising the sequential-day delta-chain prefetcher).
 *
 * Reported per client count: cold and warm queries/sec, the server's
 * p50/p99 query latency, and the cache hit rate. `--json` emits the
 * rows with a "qps" metric plus latency percentiles; CI gates warm
 * q/s against ci/BENCH_ground_serving.baseline.json via
 * `ci/perf_gate.py --bench ground_serving`.
 *
 * The global thread pool is pinned to one lane so decode work runs
 * inline on the issuing client thread: concurrency in this bench
 * comes from the clients, like production serving, not from the
 * codec's own tile fan-out.
 *
 * `--net` switches to the loopback serving benchmark: a net::Server
 * on an ephemeral port driven open-loop — Poisson arrivals at fixed
 * rates, latency measured from each query's *scheduled* send time to
 * response receipt, so queueing delay (and sender lateness) counts
 * instead of being coordinated away. Below capacity the p50/p99/p999
 * rows gate via `ci/perf_gate.py --bench ground_net`; a final
 * deliberately-overloaded row demonstrates admission control (sheds
 * with retry-after hints, bounded queueing) and stays informational.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "codec/codec.hh"
#include "ground/archive.hh"
#include "ground/tile_server.hh"
#include "net/client.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "raster/tile.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace earthplus;
using namespace earthplus::ground;

namespace {

constexpr int kImageSize = 512;
constexpr int kTileSize = 64;
constexpr int kLocations = 8;
constexpr int kDeltasPerLocation = 3;
constexpr int kQueriesPerClient = 512;
constexpr double kZipfExponent = 1.1;

raster::Plane
sceneLike(int w, int h, uint64_t seed)
{
    raster::Plane p(w, h);
    Rng rng(seed);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            p.at(x, y) = 0.5f +
                         0.25f * std::sin(x * 0.03f) * std::cos(y * 0.04f) +
                         0.1f * std::sin((x - y) * 0.11f) +
                         static_cast<float>(rng.normal(0.0, 0.02));
    p.clampTo(0.0f, 1.0f);
    return p;
}

/** A fresh directory under $TMPDIR, removed with everything in it. */
class TempDir
{
  public:
    TempDir()
    {
        const char *tmp = std::getenv("TMPDIR");
        path_ = std::string(tmp && *tmp ? tmp : "/tmp") +
                "/bench_ground_serving.XXXXXX";
        if (!::mkdtemp(path_.data())) {
            std::cerr << "cannot create temp directory '" << path_
                      << "': " << std::strerror(errno) << "\n";
            std::exit(1);
        }
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

void
buildArchive(Archive &archive)
{
    raster::TileGrid grid(kImageSize, kImageSize, kTileSize);
    for (int loc = 0; loc < kLocations; ++loc) {
        codec::EncodeParams ep;
        ep.bitsPerPixel = 2.0;
        ep.tileSize = kTileSize;
        raster::Plane base =
            sceneLike(kImageSize, kImageSize,
                      0xb00f + static_cast<uint64_t>(loc));
        RecordMeta meta;
        meta.locationId = loc;
        meta.band = 0;
        meta.captureDay = 1.0;
        meta.fullDownload = true;
        archive.append(meta, codec::encode(base, ep).serialize());

        Rng rng(0xde17a + static_cast<uint64_t>(loc));
        for (int d = 0; d < kDeltasPerLocation; ++d) {
            // A delta re-codes a random ~20% of the tiles.
            raster::TileMask roi(grid);
            for (int t = 0; t < grid.tileCount(); ++t)
                roi.set(t, rng.bernoulli(0.2));
            raster::Plane changed =
                sceneLike(kImageSize, kImageSize,
                          0xca1f + static_cast<uint64_t>(loc * 16 + d));
            codec::EncodeParams dp = ep;
            dp.roi = &roi;
            RecordMeta dm = meta;
            dm.captureDay = 2.0 + d;
            dm.fullDownload = false;
            dm.referenceDay = 1.0;
            archive.append(dm, codec::encode(changed, dp).serialize());
        }
    }
}

/** Rank-sampled Zipf over [0, kLocations): a few locations are hot. */
int
zipfLocation(Rng &rng)
{
    static const std::vector<double> cdf = [] {
        std::vector<double> weights(kLocations);
        double total = 0.0;
        for (int i = 0; i < kLocations; ++i) {
            weights[static_cast<size_t>(i)] =
                1.0 / std::pow(i + 1, kZipfExponent);
            total += weights[static_cast<size_t>(i)];
        }
        std::vector<double> out(kLocations);
        double acc = 0.0;
        for (int i = 0; i < kLocations; ++i) {
            acc += weights[static_cast<size_t>(i)] / total;
            out[static_cast<size_t>(i)] = acc;
        }
        return out;
    }();
    double u = rng.uniform();
    for (int i = 0; i < kLocations; ++i)
        if (u <= cdf[static_cast<size_t>(i)])
            return i;
    return kLocations - 1;
}

/**
 * One client's deterministic query stream. Days mostly walk forward
 * through a location's history (the prefetcher's target pattern) with
 * occasional random jumps back.
 */
std::vector<TileQuery>
clientWorkload(int client, int count = kQueriesPerClient)
{
    std::vector<TileQuery> queries;
    queries.reserve(static_cast<size_t>(count));
    Rng rng(0x9e77 + static_cast<uint64_t>(client) * 0x1009);
    std::vector<double> cursor(kLocations, 1.5);
    for (int i = 0; i < count; ++i) {
        TileQuery q;
        q.locationId = zipfLocation(rng);
        double &day = cursor[static_cast<size_t>(q.locationId)];
        if (rng.bernoulli(0.75)) {
            // Step this location's history forward one capture day,
            // wrapping back to the start of the chain.
            day += 1.0;
            if (day > 1.5 + kDeltasPerLocation)
                day = 1.5;
        } else {
            day = 1.5 + static_cast<double>(
                            rng.uniformInt(0, kDeltasPerLocation));
        }
        q.day = day;
        q.band = 0;
        q.width = 128;
        q.height = 128;
        q.x0 = static_cast<int>(rng.uniformInt(0, kImageSize - q.width));
        q.y0 = static_cast<int>(rng.uniformInt(0, kImageSize - q.height));
        queries.push_back(q);
    }
    return queries;
}

/** Run every client's stream concurrently; returns wall seconds. */
double
runClients(TileServer &server,
           const std::vector<std::vector<TileQuery>> &workloads)
{
    // Spawn first, then open the gate and start the clock: thread
    // creation cost must not pollute the gated q/s number.
    std::atomic<bool> go{false};
    std::atomic<int> notFound{0};
    std::vector<std::thread> clients;
    clients.reserve(workloads.size());
    for (const auto &workload : workloads)
        clients.emplace_back([&server, &workload, &notFound, &go] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (const TileQuery &q : workload)
                if (!server.serve(q).ok())
                    notFound.fetch_add(1);
        });
    auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto &c : clients)
        c.join();
    double sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    if (notFound.load() > 0)
        std::cerr << "warning: " << notFound.load()
                  << " queries missed the archive\n";
    return sec;
}

// ------------------------------------------------------------ --net mode

/** One open-loop phase's outcome. */
struct OpenLoopStats
{
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double p999Ms = 0.0;
    double achievedQps = 0.0;
    int served = 0;
    int shed = 0;

    double
    shedRate() const
    {
        return served + shed > 0
                   ? static_cast<double>(shed) / (served + shed)
                   : 0.0;
    }
};

/**
 * Drive `client` open-loop: Poisson arrivals at `ratePerSec`, one
 * sender thread pacing the schedule and one receiver thread matching
 * responses by request id. Latency is measured from the *scheduled*
 * send time, so when the sender falls behind (or the server queues)
 * the delay lands in the percentiles instead of stretching the
 * arrival process — the standard correction for coordinated omission.
 * Shed responses count toward shedRate() but not the percentiles.
 */
OpenLoopStats
runOpenLoop(net::TileClient &client,
            const std::vector<TileQuery> &queries, double ratePerSec,
            uint64_t seed)
{
    const size_t n = queries.size();
    std::vector<uint64_t> scheduleNs(n);
    Rng rng(seed);
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
        t += rng.exponential(ratePerSec) * 1e9;
        scheduleNs[i] = static_cast<uint64_t>(t);
    }

    // Indexed by request id - 1; the receiver is the only writer of
    // each slot and joins before anyone reads them.
    std::vector<int64_t> latencyNs(n, -1);
    std::vector<uint8_t> wasShed(n, 0);
    const uint64_t start = telemetry::nowNanos();
    std::thread receiver([&] {
        for (size_t i = 0; i < n; ++i) {
            TileResult r;
            uint64_t id = 0;
            if (!client.receive(r, &id))
                return;
            size_t idx = static_cast<size_t>(id - 1);
            if (idx >= n)
                return;
            latencyNs[idx] =
                static_cast<int64_t>(telemetry::nowNanos()) -
                static_cast<int64_t>(start + scheduleNs[idx]);
            wasShed[idx] = r.error == ServeError::Shed ? 1 : 0;
        }
    });
    for (size_t i = 0; i < n; ++i) {
        // Sleep to within a millisecond of the deadline, then yield:
        // oversleep would show up as latency (measured from the
        // schedule), and hard spinning would starve the server loop
        // on small hosts.
        for (;;) {
            uint64_t now = telemetry::nowNanos();
            uint64_t due = start + scheduleNs[i];
            if (now >= due)
                break;
            if (due - now > 1'000'000)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(due - now - 1'000'000));
            else
                std::this_thread::yield();
        }
        if (!client.send(queries[i], static_cast<uint64_t>(i + 1)))
            break;
    }
    receiver.join();

    OpenLoopStats out;
    std::vector<double> servedMs;
    servedMs.reserve(n);
    uint64_t lastNs = 0;
    for (size_t i = 0; i < n; ++i) {
        if (latencyNs[i] < 0)
            continue; // no response (send/receive aborted)
        if (wasShed[i]) {
            ++out.shed;
        } else {
            ++out.served;
            servedMs.push_back(static_cast<double>(latencyNs[i]) / 1e6);
        }
        lastNs = std::max(
            lastNs, scheduleNs[i] + static_cast<uint64_t>(latencyNs[i]));
    }
    if (!servedMs.empty()) {
        std::sort(servedMs.begin(), servedMs.end());
        auto rank = [&](double p) {
            size_t r = static_cast<size_t>(
                std::ceil(p * static_cast<double>(servedMs.size())));
            return servedMs[std::min(r, servedMs.size()) - 1];
        };
        out.p50Ms = rank(0.50);
        out.p99Ms = rank(0.99);
        out.p999Ms = rank(0.999);
    }
    if (lastNs > 0)
        out.achievedQps = static_cast<double>(out.served + out.shed) /
                          (static_cast<double>(lastNs) / 1e9);
    return out;
}

/** The --net benchmark: loopback serving under open-loop load. */
int
runNetBench(const Archive &archive, const std::string &jsonPath)
{
    epbench::JsonReporter json("ground_net");

    // One serving lane: the CI floor is a single-core host, and the
    // gate needs the same serving topology everywhere.
    int dflt = util::ThreadPool::defaultThreadCount();
    util::ThreadPool::setGlobalThreads(1);

    TileServerOptions tileOptions;
    tileOptions.cacheBytes = 256u << 20;
    TileServer tiles(archive, tileOptions);
    net::ServerOptions options;
    options.maxPending = 128;
    net::Server server(tiles, options);
    if (!server.start()) {
        std::cerr << "failed to start loopback server\n";
        return 1;
    }
    net::TileClient client;
    if (!client.connect("127.0.0.1", server.port())) {
        std::cerr << "failed to connect to loopback server\n";
        return 1;
    }

    Table table("Ground serving over loopback EPT: open-loop Poisson "
                "arrivals (pending queue " +
                Table::num(static_cast<double>(options.maxPending), 0) +
                ", retry-after " +
                Table::num(static_cast<double>(options.retryAfterMs), 0) +
                " ms)");
    table.setHeader({"arrival rate", "achieved q/s", "p50 ms", "p99 ms",
                     "p99.9 ms", "shed"});

    // Warm the decoded-tile cache (and the wire path) closed-loop
    // before any timed phase.
    std::vector<TileQuery> warmup = clientWorkload(0, 512);
    for (const TileQuery &q : warmup) {
        TileResult r;
        if (!client.query(q, r) || !r.ok()) {
            std::cerr << "warmup query failed\n";
            return 1;
        }
    }

    // Fixed below-capacity rates (gated: same workload everywhere),
    // then a rate far past capacity (informational: demonstrates that
    // overload sheds instead of queueing without bound).
    struct Phase
    {
        const char *name;
        double rate;
        int queries;
        bool gated;
    };
    const Phase phases[] = {
        {"net_serving/open/r500", 500.0, 1500, true},
        {"net_serving/open/r1000", 1000.0, 2000, true},
        {"net_serving/overload/r20000", 20000.0, 2000, false},
    };
    bool sawShedUnderOverload = false;
    for (const Phase &phase : phases) {
        std::vector<TileQuery> queries =
            clientWorkload(1, phase.queries);
        OpenLoopStats stats = runOpenLoop(client, queries, phase.rate,
                                          0x0b5e + phase.queries);
        if (stats.served + stats.shed < phase.queries) {
            std::cerr << phase.name << ": lost responses ("
                      << stats.served + stats.shed << "/"
                      << phase.queries << ")\n";
            return 1;
        }
        if (!phase.gated)
            sawShedUnderOverload = stats.shed > 0;
        table.addRow({Table::num(phase.rate, 0) + "/s",
                      Table::num(stats.achievedQps, 1),
                      Table::num(stats.p50Ms, 3),
                      Table::num(stats.p99Ms, 3),
                      Table::num(stats.p999Ms, 3),
                      Table::pct(stats.shedRate())});
        json.add(phase.name,
                 {{"rate_per_s",
                   std::to_string(static_cast<int>(phase.rate))},
                  {"queries", std::to_string(phase.queries)}},
                 stats.p50Ms, 0.0,
                 {{"p50_ms", stats.p50Ms},
                  {"p99_ms", stats.p99Ms},
                  {"p999_ms", stats.p999Ms},
                  {"qps", stats.achievedQps},
                  {"shed_rate", stats.shedRate()}});
    }
    client.close();
    server.stop();
    util::ThreadPool::setGlobalThreads(dflt);

    table.print(std::cout);
    if (!sawShedUnderOverload)
        std::cout << "note: overload phase shed nothing — this host "
                     "outruns 20k q/s; the row stays informational\n";
    if (!json.write(jsonPath)) {
        std::cerr << "failed to write " << jsonPath << "\n";
        return 1;
    }
    return 0;
}

/**
 * Dedicated tracing pass for `--trace-json`: a short workload built to
 * emit spans from every instrumented subsystem — a fresh encode
 * (codec), appends + cold serves (archive, ground), a serveBatch
 * (pool), and a sequential-day walk that triggers the prefetcher (bg).
 * Runs after the measurement sweep so tracing cost never touches the
 * gated numbers.
 */
bool
runTracePhase(const Archive &archive, const std::string &path)
{
    telemetry::setTracing(true);
    {
        TileServerOptions tileOptions;
        tileOptions.cacheBytes = 64u << 20;
        TileServer server(archive, tileOptions);
        // Sequential-day walk: the second forward step looks
        // sequential, so the prefetcher posts background work.
        for (int d = 0; d <= kDeltasPerLocation; ++d) {
            TileQuery q;
            q.locationId = 0;
            q.day = 1.5 + d;
            q.width = 128;
            q.height = 128;
            server.serve(q);
        }
        std::vector<TileQuery> workload = clientWorkload(0);
        workload.resize(64);
        server.serveBatch(workload);
        server.waitForPrefetchIdle();

        // A loopback round trip so the trace holds net-tier frame
        // spans alongside the serving spans they wrap.
        net::Server netServer(server);
        net::TileClient netClient;
        if (netServer.start() &&
            netClient.connect("127.0.0.1", netServer.port())) {
            TileQuery q;
            q.locationId = 0;
            q.day = 1.5;
            q.width = 128;
            q.height = 128;
            TileResult r;
            netClient.query(q, r);
        }
    }
    // One fresh encode so the trace holds the codec's per-stage
    // spans, codec.transform and codec.entropy_chunk (the archive
    // build ran before tracing was enabled).
    codec::EncodeParams ep;
    ep.bitsPerPixel = 2.0;
    ep.tileSize = kTileSize;
    codec::encode(sceneLike(kImageSize, kImageSize, 0x7ace), ep);
    telemetry::setTracing(false);
    if (!telemetry::writeTrace(path)) {
        std::cerr << "failed to write " << path << "\n";
        return false;
    }
    std::cout << "wrote " << path << "\n";
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string jsonPath = epbench::JsonReporter::pathFromArgs(argc, argv);
    TempDir dir; // outlives the archive below
    Archive archive(dir.path());
    buildArchive(archive);

    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--net")
            return runNetBench(archive, jsonPath);

    epbench::JsonReporter json("ground_serving");

    // Decode inline on the client threads (see the file comment).
    int dflt = util::ThreadPool::defaultThreadCount();
    util::ThreadPool::setGlobalThreads(1);

    unsigned hw = std::thread::hardware_concurrency();
    std::vector<int> sweep{1, 2, 4};
    if (hw > 4)
        sweep.push_back(static_cast<int>(hw));

    Table table("Ground serving: Zipfian multi-client load "
                "(archive: " +
                Table::num(static_cast<double>(archive.fileBytes()) / 1e6,
                           1) +
                " MB, " + Table::num(kQueriesPerClient, 0) +
                " queries/client)");
    table.setHeader({"clients", "cold q/s", "warm q/s", "warm speedup",
                     "p50 ms", "p99 ms", "hit rate"});

    double warmBaseline = 0.0;
    for (int clients : sweep) {
        std::vector<std::vector<TileQuery>> workloads;
        workloads.reserve(static_cast<size_t>(clients));
        for (int c = 0; c < clients; ++c)
            workloads.push_back(clientWorkload(c));
        double totalQueries =
            static_cast<double>(clients) * kQueriesPerClient;

        // Fresh server per client count: the cold pass fills the
        // cache, warm passes measure steady-state serving.
        TileServerOptions tileOptions;
        tileOptions.cacheBytes = 256u << 20;
        TileServer server(archive, tileOptions);
        double coldQps = totalQueries / runClients(server, workloads);
        server.waitForPrefetchIdle();
        server.resetStats();
        constexpr int kWarmReps = 5;
        double warmSec = 0.0;
        for (int rep = 0; rep < kWarmReps; ++rep)
            warmSec += runClients(server, workloads);
        double warmQps = kWarmReps * totalQueries / warmSec;
        if (clients == 1)
            warmBaseline = warmQps;
        StatsView stats = server.statsView();
        table.addRow({std::to_string(clients), Table::num(coldQps, 1),
                      Table::num(warmQps, 1),
                      Table::num(warmBaseline > 0.0
                                     ? warmQps / warmBaseline
                                     : 1.0) +
                          "x",
                      Table::num(stats.latencyP50Ms, 3),
                      Table::num(stats.latencyP99Ms, 3),
                      Table::pct(stats.hitRate())});
        json.add("zipf_serving/warm/c" + std::to_string(clients),
                 {{"clients", std::to_string(clients)},
                  {"queries_per_client",
                   std::to_string(kQueriesPerClient)}},
                 stats.latencyP50Ms, 0.0,
                 {{"qps", warmQps},
                  {"p50_ms", stats.latencyP50Ms},
                  {"p99_ms", stats.latencyP99Ms}});
    }
    util::ThreadPool::setGlobalThreads(dflt);
    table.print(std::cout);
    if (!json.write(jsonPath)) {
        std::cerr << "failed to write " << jsonPath << "\n";
        return 1;
    }
    epbench::writeMetricsSnapshot(argc, argv);
    std::string tracePath = epbench::flagValue(argc, argv, "--trace-json");
    if (!tracePath.empty() && !runTracePhase(archive, tracePath))
        return 1;
    if (std::thread::hardware_concurrency() <= 1)
        std::cout << "note: single-core host; multi-client q/s is "
                     "expected to be flat here and to scale with "
                     "physical cores elsewhere\n";
    return 0;
}

/**
 * @file
 * perfbench: one end-to-end benchmark of the shipping Earth+ pipeline.
 *
 *   perfbench --workload ingest|serve_cold|serve_net_mixed --seed N
 *             --seconds S --trace 0|1 --work-dir DIR [--size full|tiny]
 *
 * Every workload drives capture -> on-board Earth+ -> lossy ARQ
 * downlink -> on-disk sharded archive; the serve workloads then read
 * that archive back through the decode-on-demand TileServer (in
 * process, closed loop) or through EPT loopback (open loop, with a
 * concurrent archive writer). Every run ends by re-serving a seeded
 * sample of queries bit for bit through a cache-less TileServer and
 * over EPT. The last line of stdout is one JSON object:
 *
 *   {"correct": bool, "attempted": n, "failed": n,
 *    "metrics": {name: {"value": v, "unit": u}, ...}}
 *
 * with the end-to-end metrics for --trace 0 and the per-layer metrics
 * for --trace 1. A --trace 1 run first repeats the untraced run, so
 * it can report the tracing overhead, then runs the workload again
 * with telemetry tracing on. perfbench/README.md documents the
 * workloads, metrics and sizes.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "bench.hh"
#include "ingest.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "serve.hh"
#include "util/parallel.hh"

using namespace earthplus;
using namespace perfbench;

namespace {

/** Pool lanes of every set-up and of the ingest workload, and of the
 *  serve phases (clients and generator threads come on top, and
 *  together they stay within 4 cores). */
constexpr int kIngestLanes = 4;
constexpr int kColdClients = 2;
constexpr int kColdLanes = 2;
constexpr int kNetLanes = 2;

/** serve_cold: decoded-tile cache, far below the decoded working set. */
constexpr size_t kColdCacheBytes = 2u << 20;
/** serve_net_mixed: decoded-tile cache that fits the hot set. */
constexpr size_t kNetCacheBytes = 256u << 20;
/** serve_net_mixed: fixed offered rate and the p99 latency limit. */
constexpr double kNetRate = 800.0;
constexpr double kNetLimitMs = 20.0;
/** serve_net_mixed: queries in flight in the saturation phase. */
constexpr int kNetWindow = 32;
/** serve_net_mixed: newest share of the archive held back for the writer. */
constexpr double kHoldBack = 0.25;
/** Latency quantiles are medians over windows of this many seconds. */
constexpr double kWindowSec = 1.0;
constexpr size_t kMinPerWindow = 200;
/**
 * A sender later than this at p99 invalidates the fixed-rate phase:
 * latency is timed from the schedule, so a little lateness only moves
 * load around, but lateness near the latency limit means the generator
 * no longer offered the stated rate.
 */
constexpr double kMaxLateMs = kNetLimitMs;

/** Bench span names that are top-level calls of a timed phase. */
const std::vector<std::string> kIngestRoots = {
    "ground.station.advance", "core.uplink", "core.process",
    "codec.serialize", "ground.station.submit"};

/** Registry counters reported per layer (deltas over the traced pass). */
const std::vector<std::string> kCounters = {
    "codec.tiles_encoded",    "codec.pipeline.stalls",
    "archive.appends",        "archive.append_bytes",
    "archive.payload_views",  "archive.bytes_mapped",
    "ground.serve.queries",   "ground.tiles.decoded",
    "ground.tiles.cache_hit", "ground.tiles.coalesced",
    "ground.prefetch.tasks",  "ground.prefetch.dropped",
    "bg.tasks",               "bg.dropped",
    "net.shed",               "net.bytes.tx"};

/** Registry histograms whose quantiles over the traced pass are reported. */
const std::vector<std::string> kHistograms = {
    "ground.serve.latency_ns", "archive.shard_lock_wait_ns",
    "net.queue.wait_ns", "pool.task_wait_ns"};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** What one pass of a workload measured. */
struct Pass
{
    /** End-to-end metrics by name (units in kUnits). */
    std::map<std::string, double> e2e;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Ingest counts that must not change when tracing is on. */
    std::vector<double> invariantCounts;
    /** Set-up ingest or the timed ingest, for the per-layer values. */
    IngestResult ingest;
    /** Open-loop layer samples (fixed-rate phase or EPT verification). */
    Samples wireMs, qualityMs, lateMs;
    /** Writer append wall times (serve_net_mixed). */
    Samples appendMs;
    /** Unattributed residual of the timed phase (ms) and its base. */
    double unattributedMs = 0.0;
    double attributionBaseMs = 0.0;
};

/** Units of the end-to-end metrics. */
const std::vector<std::pair<std::string, std::string>> kUnits = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ops_per_s", "1/s"},
    {"op_ms_p50", "ms"},
    {"op_ms_tail", "ms"},
    {"downlink_bytes_per_capture", "B"},
    {"psnr_db", "dB"}};

/** Shared state of one pass. */
struct Ctx
{
    const Config &cfg;
    Report &report;
    Layers &layers;
    TraceCollector *trace; ///< Non-null in the traced pass.
    int setupRepeats;
    std::string tag; ///< Distinguishes the two passes' directories.
};

/** Open an archive directory the way the serving side does. */
std::unique_ptr<ground::Archive>
reopen(Ctx &ctx, const std::string &dir)
{
    ground::ArchiveOpenError err;
    std::unique_ptr<ground::Archive> archive;
    {
        LayerCall call(ctx.layers, "archive.reopen", "archive");
        archive = ground::Archive::open(dir, ground::ArchiveOptions(), &err);
    }
    ctx.report.check(archive != nullptr,
                     "Archive::open(" + dir + ") failed: " + err.detail);
    return archive;
}

/** Checks every ingest must pass, whatever the workload. */
void
checkIngest(Ctx &ctx, const IngestResult &r, const ground::Archive &archive)
{
    const ground::StationStats &st = r.station;
    ctx.report.check(st.capturesByteIdentical == st.capturesCompleted,
                     "ground station: " +
                         std::to_string(st.capturesByteIdentical) +
                         " byte-identical of " +
                         std::to_string(st.capturesCompleted) +
                         " completed");
    ctx.report.check(st.capturesCompleted ==
                         static_cast<uint32_t>(r.submitted) - st.capturesFailed,
                     "ground station completed " +
                         std::to_string(st.capturesCompleted) + " of " +
                         std::to_string(r.submitted) + " submitted");
    ctx.report.check(archive.recordCount() == r.recordsAppended,
                     "reopened archive holds " +
                         std::to_string(archive.recordCount()) + " records, " +
                         std::to_string(r.recordsAppended) + " were appended");
    ctx.report.check(!archive.scanReport().truncatedTail,
                     "reopened archive has a truncated tail");
}

/** Per-layer and e2e values every workload takes from its ingest. */
void
ingestValues(Pass &pass, const IngestResult &r)
{
    pass.ingest = r;
    pass.e2e["downlink_bytes_per_capture"] = r.meanDownlinkBytes();
    pass.e2e["psnr_db"] = r.meanPsnr();
    pass.invariantCounts = {
        static_cast<double>(r.iterations),
        static_cast<double>(r.submitted),
        r.downlinkBytes,
        static_cast<double>(r.station.channel.packetsSent),
        static_cast<double>(r.station.channel.packetsLost),
        static_cast<double>(r.station.channel.packetsRetransmitted),
        static_cast<double>(r.station.channel.bytesSent),
        static_cast<double>(r.recordsAppended)};
}

/**
 * Verify `sample` bit for bit (cache-less in process, and replayed open
 * loop over EPT); workloads without an open-loop phase of their own
 * take the replay's net-layer samples.
 */
void
verify(Ctx &ctx, Pass &pass, const ground::Archive &archive,
       const std::vector<Served> &sample, bool keepOpenLoopSamples)
{
    OpenLoopResult replay =
        verifySample(archive, sample, ctx.layers, ctx.report);
    if (keepOpenLoopSamples) {
        pass.wireMs = replay.wireMs;
        pass.qualityMs = replay.qualityMs;
        pass.lateMs = replay.lateMs;
    }
}

// ------------------------------------------------------------ ingest

Pass
ingestPass(Ctx &ctx)
{
    const Config &cfg = ctx.cfg;
    Pass pass;
    synth::DatasetSpec spec =
        benchDataset(cfg.sizes, 60.0, cfg.sizes.ingestDays);
    std::string dir = cfg.workDir + "/ingest" + ctx.tag;

    std::vector<double> setupSec;
    std::unique_ptr<IngestPipeline> pipeline;
    for (int rep = 0; rep < ctx.setupRepeats; ++rep) {
        pipeline.reset();
        removeTree(dir);
        double t0 = nowSec();
        pipeline = std::make_unique<IngestPipeline>(
            spec, benchGround(cfg.seed, cfg.sizes, dir), cfg.seed);
        setupSec.push_back(nowSec() - t0);
    }
    pass.e2e["setup_s"] = median(setupSec);

    size_t mark = ctx.trace ? ctx.trace->spanCount() : 0;
    IngestResult r = pipeline->run(ctx.layers, ctx.trace);
    pipeline.reset();
    if (ctx.trace) {
        pass.attributionBaseMs = r.loopSec * 1000.0;
        pass.unattributedMs = pass.attributionBaseMs -
                              ctx.trace->rootMs(kIngestRoots, mark,
                                                ctx.trace->spanCount());
    }

    pass.e2e["ops_per_s"] = r.loopSec > 0.0 ? r.iterations / r.loopSec : 0.0;
    pass.e2e["op_ms_p50"] = r.downloadMs.quantile(0.50);
    pass.e2e["op_ms_tail"] = r.iterationMs.quantile(0.95);
    ingestValues(pass, r);
    pass.attempted = static_cast<uint64_t>(r.iterations);
    pass.failed = r.station.capturesFailed;

    std::unique_ptr<ground::Archive> archive = reopen(ctx, dir);
    if (archive) {
        checkIngest(ctx, r, *archive);
        Domain domain = domainOf(*archive, cfg.sizes.imageSize,
                                 static_cast<int>(spec.bands.size()));
        ctx.report.note("ingest payload digest " +
                        hex64(archiveDigest(*archive)));
        std::vector<Served> sample = probeQueries(
            *archive, domain, cfg.seed, cfg.sizes.verifySample, ctx.layers);
        verify(ctx, pass, *archive, sample, true);
    }
    ctx.report.note(
        "ingest: " + std::to_string(r.iterations) + " captures (" +
        std::to_string(r.submitted) + " downloaded, " +
        std::to_string(r.dropped) + " dropped as cloudy, " +
        std::to_string(r.fullDownloads) + " full downloads), " +
        std::to_string(r.recordsAppended) + " records, " +
        fmt(static_cast<double>(r.archiveFileBytes) / 1e6, 2) +
        " MB archive; " +
        "capture_ms_p50 over " + std::to_string(r.downloadMs.count()) +
        " downloaded captures, capture_ms_p95 over " +
        std::to_string(r.iterationMs.count()) + " iterations");
    return pass;
}

// ------------------------------------------------------- serve set-up

/** The archive a serve workload reads, built and reopened in set-up. */
struct ServeArchive
{
    std::string dir;
    std::unique_ptr<ground::Archive> archive;
    IngestResult ingest;
    std::vector<HeldRecord> held;
    int bands = 0;
};

/**
 * Set-up of both serve workloads, `ctx.setupRepeats` times (setup_s is
 * the median; every repeat must build a byte-identical archive): the
 * ingest path on a shorter slice, then Archive::open of its directory.
 * With `holdBack` > 0 the newest share of captures is kept out of the
 * served archive, for the writer to append while serving.
 */
ServeArchive
serveSetup(Ctx &ctx, Pass &pass, double holdBack)
{
    const Config &cfg = ctx.cfg;
    synth::DatasetSpec spec =
        benchDataset(cfg.sizes, 150.0, cfg.sizes.serveDays);
    std::vector<double> setupSec;
    ServeArchive out;
    out.bands = static_cast<int>(spec.bands.size());
    uint64_t firstDigest = 0;
    for (int rep = 0; rep < ctx.setupRepeats; ++rep) {
        std::string ingestDir = cfg.workDir + "/station" + ctx.tag;
        std::string serveDir = cfg.workDir + "/serve" + ctx.tag;
        out.archive.reset();
        out.held.clear();
        removeTree(ingestDir);
        removeTree(serveDir);
        double t0 = nowSec();
        IngestResult r;
        {
            IngestPipeline pipeline(
                spec, benchGround(cfg.seed, cfg.sizes, ingestDir), cfg.seed);
            r = pipeline.run(ctx.layers, ctx.trace);
        }
        std::unique_ptr<ground::Archive> station = reopen(ctx, ingestDir);
        if (!station)
            return out;
        if (holdBack > 0.0) {
            // Hold back the newest captures: copy the older records in
            // append order, keep the rest (in capture order) for the writer.
            std::vector<double> days;
            for (size_t i = 0; i < station->recordCount(); ++i)
                days.push_back(station->record(i).meta.captureDay);
            std::vector<double> sorted = days;
            std::sort(sorted.begin(), sorted.end());
            double cutoff = sorted[static_cast<size_t>(
                static_cast<double>(sorted.size()) * (1.0 - holdBack))];
            {
                ground::Archive copy(serveDir);
                for (size_t i = 0; i < station->recordCount(); ++i) {
                    ground::RecordEntry e = station->record(i);
                    if (e.meta.captureDay < cutoff)
                        copy.append(e.meta, station->loadPayload(i));
                    else
                        out.held.push_back({e.meta, station->loadPayload(i)});
                }
            }
            std::stable_sort(
                out.held.begin(), out.held.end(),
                [](const HeldRecord &a, const HeldRecord &b) {
                    if (a.meta.captureDay != b.meta.captureDay)
                        return a.meta.captureDay < b.meta.captureDay;
                    return a.meta.band < b.meta.band;
                });
            station.reset();
            out.archive = reopen(ctx, serveDir);
            out.dir = serveDir;
        } else {
            out.archive = std::move(station);
            out.dir = ingestDir;
        }
        setupSec.push_back(nowSec() - t0);
        if (!out.archive)
            return out;
        if (rep == 0) {
            checkIngest(ctx, r, *reopen(ctx, ingestDir));
            firstDigest = archiveDigest(*out.archive);
            out.ingest = r;
        } else {
            ctx.report.check(archiveDigest(*out.archive) == firstDigest,
                             "set-up repeat " + std::to_string(rep) +
                                 " built a different archive");
        }
    }
    pass.e2e["setup_s"] = median(setupSec);
    ingestValues(pass, out.ingest);
    size_t records = out.archive ? out.archive->recordCount() : 0;
    double mb = out.archive ? out.archive->fileBytes() / 1e6 : 0.0;
    ctx.report.note("serve archive digest " + hex64(firstDigest) + ": " +
                    std::to_string(records) + " records, " + fmt(mb, 2) +
                    " MB, " + std::to_string(out.held.size()) +
                    " held back");
    return out;
}

/** Decoded bytes of every tile of every record (the working set). */
double
decodedWorkingSetMb(const ground::Archive &archive, int imageSize)
{
    return static_cast<double>(archive.recordCount()) * imageSize * imageSize *
           sizeof(float) / 1e6;
}

// -------------------------------------------------------- serve_cold

Pass
serveColdPass(Ctx &ctx)
{
    const Config &cfg = ctx.cfg;
    Pass pass;
    ServeArchive sa = serveSetup(ctx, pass, 0.0);
    if (!sa.archive)
        return pass;
    Domain domain = domainOf(*sa.archive, cfg.sizes.imageSize, sa.bands);
    util::ThreadPool::setGlobalThreads(kColdLanes);

    ground::TileServerOptions opts;
    opts.cacheBytes = kColdCacheBytes;
    ColdResult cold;
    size_t mark = ctx.trace ? ctx.trace->spanCount() : 0;
    {
        ground::TileServer server(*sa.archive, opts);
        std::function<void()> tick;
        if (ctx.trace)
            tick = [&] { ctx.trace->flush(); };
        cold = runColdClients(server, domain, cfg.seed, cfg.seconds,
                              kColdClients, ctx.layers, tick);
        server.waitForPrefetchIdle();
    }
    if (ctx.trace) {
        ctx.trace->flush();
        pass.attributionBaseMs = cold.wallSec * 1000.0 * kColdClients;
        pass.unattributedMs =
            pass.attributionBaseMs -
            ctx.trace->rootMs({"ground.serve_call"}, mark,
                              ctx.trace->spanCount());
    }
    pass.e2e["ops_per_s"] =
        cold.wallSec > 0 ? cold.completed / cold.wallSec : 0.0;
    pass.e2e["op_ms_p50"] =
        cold.ms.windowed(kWindowSec, 0.50, kMinPerWindow);
    pass.e2e["op_ms_tail"] =
        cold.ms.windowed(kWindowSec, 0.99, kMinPerWindow);
    pass.attempted = cold.completed + cold.failed;
    pass.failed = cold.failed;

    // Served results plus quality-hinted probes, so the replay also
    // measures the quality path this workload's queries skip.
    std::vector<Served> sample = std::move(cold.sample);
    size_t keep = static_cast<size_t>(cfg.sizes.verifySample) * 3 / 4;
    if (sample.size() > keep)
        sample.resize(keep);
    for (Served &s : probeQueries(*sa.archive, domain, cfg.seed,
                                  cfg.sizes.verifySample / 4, ctx.layers))
        sample.push_back(std::move(s));
    verify(ctx, pass, *sa.archive, sample, true);
    double workingSetMb =
        decodedWorkingSetMb(*sa.archive, cfg.sizes.imageSize);
    ctx.report.note("serve_cold: " + std::to_string(cold.completed) +
                    " queries from " + std::to_string(kColdClients) +
                    " closed-loop clients; serve_ms_p99 over " +
                    std::to_string(cold.ms.count()) + " samples; cache " +
                    fmt(kColdCacheBytes / 1e6, 1) +
                    " MB vs decoded working set " + fmt(workingSetMb, 1) +
                    " MB; served-pixel digest " + hex64(cold.digest));
    return pass;
}

// --------------------------------------------------- serve_net_mixed

Pass
serveNetPass(Ctx &ctx)
{
    const Config &cfg = ctx.cfg;
    Pass pass;
    ServeArchive sa = serveSetup(ctx, pass, kHoldBack);
    if (!sa.archive)
        return pass;
    Domain domain = domainOf(*sa.archive, cfg.sizes.imageSize, sa.bands);
    for (size_t i = 0; i < sa.held.size(); ++i) {
        const ground::RecordMeta &m = sa.held[i].meta;
        if (i == 0 || m.captureDay != sa.held[i - 1].meta.captureDay ||
            m.locationId != sa.held[i - 1].meta.locationId)
            domain.heldCaptures.push_back({m.locationId, m.captureDay});
    }
    const size_t baseRecords = sa.archive->recordCount();
    util::ThreadPool::setGlobalThreads(kNetLanes);

    ground::TileServerOptions opts;
    opts.cacheBytes = kNetCacheBytes;
    OpenLoopResult fixed;
    SaturationResult sat;
    CapacityResult cap;
    size_t mark = 0;
    {
        ground::TileServer tiles(*sa.archive, opts);
        net::Server server(tiles);
        net::TileClient client;
        if (!server.start() || !client.connect("127.0.0.1", server.port())) {
            ctx.report.check(false, "loopback EPT server did not start");
            return pass;
        }
        // Warm the cache with the same mix (another seed) before timing.
        OpenLoopOptions warm;
        warm.rate = kNetRate;
        warm.seconds = std::max(0.5, cfg.seconds * 0.2);
        warm.seed = cfg.seed ^ 0x3a3aULL;
        runOpenLoop(client, domain, warm, ctx.layers);
        if (ctx.trace) {
            ctx.trace->flush();
            mark = ctx.trace->spanCount();
        }

        OpenLoopOptions opt;
        opt.rate = kNetRate;
        opt.seconds = cfg.seconds;
        opt.seed = cfg.seed;
        opt.sampleEvery = std::max<int>(
            1, static_cast<int>(kNetRate * cfg.seconds /
                                cfg.sizes.verifySample));
        opt.held = &sa.held;
        opt.writable = sa.archive.get();
        if (ctx.trace)
            opt.tick = [&] { ctx.trace->flush(); };
        fixed = runOpenLoop(client, domain, opt, ctx.layers);
        if (ctx.trace) {
            ctx.trace->flush();
            double latencySum = fixed.latencyMs.all().sum();
            pass.attributionBaseMs = latencySum;
            pass.unattributedMs =
                latencySum - ctx.trace->rootMs({"net.frame", "pool.task"}, mark,
                                               ctx.trace->spanCount());
        }
        sat = runSaturation(client, domain, std::max(1.0, cfg.seconds * 0.3),
                            kNetWindow, cfg.seed ^ 0x5a7ULL);
        // The p99-limited ladder overloads the server on purpose, so
        // it stays out of the traced pass's per-layer counts.
        if (!ctx.trace)
            cap = searchCapacity(client, domain, std::max(50.0, sat.qps * 0.5),
                                 kNetLimitMs, std::max(0.5, cfg.seconds * 0.05),
                                 cfg.seed, ctx.layers);
        client.close();
        server.stop();
        tiles.waitForPrefetchIdle();
    }
    double lateP99 = fixed.lateMs.quantile(0.99);
    ctx.report.check(lateP99 <= kMaxLateMs,
                     "sender fell behind its schedule (late p99 " +
                         fmt(lateP99, 2) + " ms): run invalid");
    ctx.report.check(fixed.appends == sa.held.size(),
                     "writer appended " + std::to_string(fixed.appends) +
                         " of " + std::to_string(sa.held.size()) +
                         " held records");
    ctx.report.check(sat.failed == 0,
                     "saturation phase: " + std::to_string(sat.failed) +
                         " of " + std::to_string(sat.sent) +
                         " queries failed");
    pass.e2e["ops_per_s"] = sat.qps;
    pass.e2e["op_ms_p50"] =
        fixed.latencyMs.windowed(kWindowSec, 0.50, kMinPerWindow);
    pass.e2e["op_ms_tail"] =
        fixed.latencyMs.windowed(kWindowSec, 0.99, kMinPerWindow);
    pass.attempted = fixed.sent;
    pass.failed = fixed.failed;
    pass.wireMs = fixed.wireMs;
    pass.qualityMs = fixed.qualityMs;
    pass.lateMs = fixed.lateMs;
    pass.appendMs = ctx.layers.times("archive.append");

    std::vector<Served> sample = std::move(fixed.sample);
    verify(ctx, pass, *sa.archive, sample, false);
    // Reads beside writes must leave a recoverable archive.
    size_t expect = baseRecords + sa.held.size();
    sa.archive.reset();
    std::unique_ptr<ground::Archive> again = reopen(ctx, sa.dir);
    if (again) {
        ctx.report.check(again->recordCount() == expect,
                         "after serving, the archive reopens with " +
                             std::to_string(again->recordCount()) + " of " +
                             std::to_string(expect) + " records");
        ctx.report.check(!again->scanReport().truncatedTail,
                         "after serving, the archive has a truncated tail");
    }

    Samples all = fixed.latencyMs.all();
    ctx.report.note("serve_net_mixed: " + std::to_string(fixed.sent) +
                    " queries at " + fmt(kNetRate, 0) +
                    "/s open loop on one connection, " +
                    std::to_string(fixed.appends) +
                    " records appended while serving; net_ms_p99 over " +
                    std::to_string(fixed.latencyMs.count()) +
                    " samples; generator late p99 " + fmt(lateP99, 3) +
                    " ms; latency p90/p95/p98/p99/p99.9 " +
                    fmt(all.quantile(0.9)) + "/" + fmt(all.quantile(0.95)) +
                    "/" + fmt(all.quantile(0.98)) + "/" +
                    fmt(all.quantile(0.99)) + "/" +
                    fmt(all.quantile(0.999)));
    ctx.report.note("saturation: " + fmt(sat.qps, 1) + " q/s with " +
                    std::to_string(kNetWindow) + " in flight");
    ctx.report.note("p99-limited capacity " + fmt(cap.capacity, 0) +
                    " q/s; ladder (p99 limit " + fmt(kNetLimitMs, 0) +
                    " ms):");
    for (const std::string &rung : cap.ladder)
        ctx.report.note("  " + rung);
    return pass;
}

Pass
runPass(Ctx &ctx)
{
    const std::string &w = ctx.cfg.workload;
    util::ThreadPool::setGlobalThreads(kIngestLanes);
    Pass pass = w == "ingest"       ? ingestPass(ctx)
                : w == "serve_cold" ? serveColdPass(ctx)
                                    : serveNetPass(ctx);
    pass.e2e["peak_rss_mb"] = peakRssMb();
    return pass;
}

// ------------------------------------------------------------ report

/** Per-layer metrics of the traced pass. */
void
layerMetrics(Report &report, const Layers &layers, const Pass &pass,
             const TraceCollector &trace, const CounterSnapshot &counters,
             const std::map<std::string, telemetry::HistogramSnapshot> &hist)
{
    const IngestResult &in = pass.ingest;
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    auto mean = [&](const char *name) { return layers.times(name).mean(); };
    std::map<std::string, std::pair<double, size_t>> self =
        trace.selfTimes();
    auto selfMs = [&](const char *span) {
        auto it = self.find(span);
        return it == self.end() ? 0.0 : it->second.first;
    };
    auto timing = [&](const char *span) {
        report.layer(std::string(span) + "_ms", mean(span), "ms");
        report.layer(std::string(span) + ".self_ms", selfMs(span), "ms");
    };
    auto count = [&](const char *name) {
        report.layer(name, counters.delta(name), "count");
    };
    auto bytes = [&](const char *name) {
        report.layer(name, counters.delta(name), "B");
    };
    auto histNs = [&](const std::string &metric, const char *name,
                      double q) {
        report.layer(metric, hist.at(name).quantile(q), "ns");
    };

    timing("core.uplink");
    report.layer("core.uplink_bytes", in.uplinkBytes, "B");
    timing("core.process");
    report.layer("cloud.detect_ms", mean("cloud.detect"), "ms");
    report.layer("change.detect_ms", mean("change.detect"), "ms");
    report.layer("codec.encode_ms", mean("codec.encode"), "ms");
    report.layer("codec.encode.self_ms", selfMs("codec.encode"), "ms");
    report.layer("core.reconstruct_ms", mean("core.reconstruct"), "ms");
    timing("codec.serialize");
    timing("ground.station.submit");
    timing("ground.station.advance");
    report.layer("core.changed_tile_frac",
                 ratio(in.tileFracSum, in.submitted), "ratio");
    report.layer("core.dropped_frac", ratio(in.dropped, in.iterations),
                 "ratio");
    report.layer("core.reference_age_days",
                 ratio(in.refAgeSum, in.refAgeCount), "days");
    const ground::ChannelStats &ch = in.station.channel;
    report.layer("ground.packet.sent", static_cast<double>(ch.packetsSent),
                 "count");
    report.layer("ground.packet.lost", static_cast<double>(ch.packetsLost),
                 "count");
    report.layer("ground.packet.retransmitted",
                 static_cast<double>(ch.packetsRetransmitted), "count");
    report.layer("ground.packet.goodput_frac",
                 ratio(static_cast<double>(in.archiveFileBytes),
                       static_cast<double>(ch.bytesSent)),
                 "ratio");
    count("codec.tiles_encoded");
    count("codec.pipeline.stalls");
    count("archive.appends");
    bytes("archive.append_bytes");
    report.layer("archive.file_bytes",
                 static_cast<double>(in.archiveFileBytes), "B");
    timing("archive.reopen");
    Samples append = pass.appendMs.count()
                         ? pass.appendMs
                         : trace.durations("archive.append");
    report.layer("archive.append_ms_p50", append.quantile(0.50), "ms");
    report.layer("archive.append_ms_p99", append.quantile(0.99), "ms");

    double decoded = counters.delta("ground.tiles.decoded");
    double warm = counters.delta("ground.tiles.cache_hit") +
                  counters.delta("ground.tiles.coalesced");
    report.layer("ground.tiles_decoded_per_query",
                 ratio(decoded, counters.delta("ground.serve.queries")),
                 "tiles");
    report.layer("ground.cache_hit_frac", ratio(warm, decoded + warm),
                 "ratio");
    count("ground.tiles.coalesced");
    timing("ground.serve_call");
    histNs("ground.serve.latency_ns.p50", "ground.serve.latency_ns", 0.50);
    histNs("ground.serve.latency_ns.p99", "ground.serve.latency_ns", 0.99);
    count("ground.prefetch.tasks");
    count("ground.prefetch.dropped");
    count("bg.tasks");
    count("bg.dropped");
    count("archive.payload_views");
    bytes("archive.bytes_mapped");
    histNs("archive.shard_lock_wait_ns.p99", "archive.shard_lock_wait_ns",
           0.99);
    report.layer("net.wire_ms_p50", pass.wireMs.quantile(0.50), "ms");
    report.layer("net.wire_ms_p99", pass.wireMs.quantile(0.99), "ms");
    histNs("net.queue.wait_ns.p99", "net.queue.wait_ns", 0.99);
    count("net.shed");
    bytes("net.bytes.tx");
    report.layer("ground.quality_ms_p50", pass.qualityMs.quantile(0.50),
                 "ms");
    histNs("pool.task_wait_ns.p99", "pool.task_wait_ns", 0.99);
    report.layer("net.generator_late_ms_p99", pass.lateMs.quantile(0.99),
                 "ms");
    report.layer("trace.unattributed_ms", pass.unattributedMs, "ms");
    report.layer("trace.unattributed_frac",
                 ratio(pass.unattributedMs, pass.attributionBaseMs),
                 "ratio");
    report.layer("trace.spans", static_cast<double>(trace.spanCount()),
                 "count");
    report.layer("trace.dropped",
                 static_cast<double>(telemetry::traceDropped()), "count");
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(const Report &report, bool traced)
{
    for (const std::string &line : report.notes)
        std::cout << line << "\n";
    for (const std::string &e : report.errors)
        std::cerr << "perfbench: CHECK FAILED: " << e << "\n";
    const std::vector<Metric> &metrics =
        traced ? report.perLayer : report.endToEnd;
    for (const Metric &m : metrics)
        std::cout << "  " << m.name << " = " << jsonNumber(m.value) << " "
                  << m.unit << "\n";
    std::ostringstream js;
    js << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        js << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    js << "}}";
    std::cout << js.str() << std::endl;
}

int
usage()
{
    std::cerr << "usage: perfbench --workload "
                 "ingest|serve_cold|serve_net_mixed --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--size full|tiny]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    std::string size = "full";
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            cfg.workload = v;
        else if (k == "--seed")
            cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            cfg.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            cfg.trace = v == "1";
        else if (k == "--work-dir")
            cfg.workDir = v;
        else if (k == "--size")
            size = v;
        else
            return usage();
    }
    if ((cfg.workload != "ingest" && cfg.workload != "serve_cold" &&
         cfg.workload != "serve_net_mixed") ||
        cfg.workDir.empty() || cfg.seconds <= 0.0 ||
        (size != "full" && size != "tiny"))
        return usage();
    if (size == "tiny") {
        cfg.sizes.imageSize = 128;
        cfg.sizes.locations = 2;
        cfg.sizes.ingestDays = 60.0;
        cfg.sizes.serveDays = 45.0;
        cfg.sizes.ingestSetupRepeats = 2;
        cfg.sizes.serveSetupRepeats = 2;
        cfg.sizes.verifySample = 8;
    }
    std::cout << "perfbench workload=" << cfg.workload << " seed=" << cfg.seed
              << " seconds=" << cfg.seconds << " trace=" << (cfg.trace ? 1 : 0)
              << " size=" << size << "\n";

    Report report;
    telemetry::setTracing(false);
    Layers untracedLayers;
    int repeats = cfg.workload == "ingest" ? cfg.sizes.ingestSetupRepeats
                                           : cfg.sizes.serveSetupRepeats;
    Ctx plain{cfg, report, untracedLayers, nullptr, repeats, ""};
    Pass base = runPass(plain);
    report.attempted = base.attempted;
    report.failed = base.failed;
    for (const auto &[name, unit] : kUnits)
        report.e2e(name, base.e2e[name], unit);

    if (cfg.trace) {
        // The traced pass: same workload, fresh directories, spans on.
        Layers layers;
        TraceCollector trace;
        CounterSnapshot counters(kCounters);
        std::map<std::string, telemetry::HistogramSnapshot> hist;
        for (const std::string &h : kHistograms)
            hist[h] = telemetry::histogram(h).snapshot();
        telemetry::setTracing(true);
        TraceCollector::discard();
        Ctx traced{cfg, report, layers, &trace, 1, "-traced"};
        Pass tp = runPass(traced);
        std::string tracePath = cfg.workDir + "/trace.json";
        report.check(telemetry::writeTrace(tracePath),
                     "cannot write " + tracePath);
        trace.flush();
        telemetry::setTracing(false);
        for (auto &[name, snap] : hist)
            snap = telemetry::histogram(name).snapshot().since(snap);
        layerMetrics(report, layers, tp, trace, counters, hist);
        for (const auto &[name, unit] : kUnits) {
            double u = base.e2e[name], t = tp.e2e[name];
            report.layer("trace.overhead." + name,
                         u != 0.0 ? t / u - 1.0 : 0.0, "ratio");
        }
        if (cfg.workload == "ingest")
            report.check(tp.invariantCounts == base.invariantCounts,
                         "ingest byte, capture or packet counts differ "
                         "when traced");
        report.note("trace written to " + tracePath);
    }
    printResult(report, cfg.trace);
    return 0;
}

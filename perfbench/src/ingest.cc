#include "ingest.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "core/systems.hh"
#include "synth/scene.hh"
#include "synth/sensor.hh"
#include "synth/weather.hh"
#include "util/parallel.hh"

namespace perfbench {

using namespace earthplus;

namespace {

/** SplitMix64 finalizer: decorrelates derived seeds. */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** One location's simulation state, as core::LocationSimulation keeps it. */
struct Site
{
    int locationId = 0;
    std::unique_ptr<synth::SceneModel> scene;
    std::unique_ptr<synth::WeatherProcess> weather;
    std::unique_ptr<synth::CaptureSimulator> sensor;
    std::unique_ptr<core::ReferenceStore> store;
    std::unique_ptr<core::EarthPlusSystem> system;
    std::unique_ptr<orbit::DailyByteBudget> uplink;
    double currentDay = 0.0;
};

struct Scheduled
{
    double day = 0.0;
    int satelliteId = 0;
    size_t site = 0;
};

/** Captures rendered per batch (bounds the memory pre-rendering takes). */
constexpr size_t kRenderBatch = 16;

} // namespace

synth::DatasetSpec
benchDataset(const Sizes &sizes, double startDay, double days)
{
    synth::DatasetSpec spec =
        synth::richContentDataset(sizes.imageSize, sizes.imageSize);
    spec.startDay = startDay;
    spec.endDay = startDay + days;
    // RGB plus the SWIR band the cloud detector needs.
    spec.bands = {spec.bands[1], spec.bands[2], spec.bands[3],
                  spec.bands[11]};
    spec.locations.resize(static_cast<size_t>(sizes.locations));
    return spec;
}

ground::GroundSegmentParams
benchGround(uint64_t seed, const Sizes &sizes, const std::string &dir)
{
    ground::GroundSegmentParams gp;
    gp.enabled = true;
    gp.contactsPerDay = 7;
    gp.channel.payloadBytesPerPacket = 1024;
    gp.channel.lossProbability = 0.05;
    double area = static_cast<double>(sizes.imageSize) * sizes.imageSize /
                  (512.0 * 512.0);
    gp.channel.bytesPerContact = std::max(4096.0, 48.0 * 1024.0 * area);
    gp.channel.retentionContacts = 64;
    gp.channel.seed = mix(seed ^ 0xa11ce);
    gp.archivePath = dir;
    return gp;
}

struct IngestPipeline::State
{
    synth::DatasetSpec spec;
    ground::GroundSegmentParams ground;
    std::vector<Site> sites;
    std::map<int, size_t> siteOf;
    std::unique_ptr<ground::GroundStation> station;
    std::vector<Scheduled> schedule;
};

IngestPipeline::IngestPipeline(const synth::DatasetSpec &spec,
                               const ground::GroundSegmentParams &groundParams,
                               uint64_t sensorSeed)
    : s_(std::make_unique<State>())
{
    s_->spec = spec;
    s_->ground = groundParams;
    core::SystemParams sysParams;
    sysParams.externalGroundIngest = true;
    core::UplinkPlanner::Params uplinkParams;
    const double uplinkBytesPerDay = 1e12;
    const double maxCloudForReference = 0.01;

    std::vector<Site> &sites = s_->sites;
    sites.resize(spec.locations.size());
    for (size_t i = 0; i < sites.size(); ++i) {
        Site &s = sites[i];
        s.locationId = spec.locations[i].locationId;
        synth::SceneConfig sc;
        sc.width = spec.width;
        sc.height = spec.height;
        sc.tileSize = spec.tileSize;
        sc.bands = spec.bands;
        sc.historyStartDay = spec.startDay - 120.0;
        sc.horizonDays = spec.endDay + 30.0;
        s.scene = std::make_unique<synth::SceneModel>(spec.locations[i], sc);
        synth::WeatherParams wp;
        wp.seed = spec.seed ^ 0x77ea77e5ULL;
        s.weather = std::make_unique<synth::WeatherProcess>(wp);
        synth::SensorParams sp;
        sp.seed = mix(sensorSeed ^ 0x5e45042ULL);
        s.sensor = std::make_unique<synth::CaptureSimulator>(
            *s.scene, *s.weather, sp);
        s.store = std::make_unique<core::ReferenceStore>(maxCloudForReference);
        s.system = std::make_unique<core::EarthPlusSystem>(
            spec.bands, sysParams, uplinkParams, *s.store);
        s.uplink = std::make_unique<orbit::DailyByteBudget>(uplinkBytesPerDay);
        s.currentDay = std::floor(spec.startDay) - 1.0;
        s_->siteOf[s.locationId] = i;
    }

    // References reach a location's store when its download completes.
    State *state = s_.get();
    s_->station = std::make_unique<ground::GroundStation>(
        groundParams, [state](const ground::CaptureDownload &download) {
            state->sites[state->siteOf.at(download.locationId)].store->offer(
                download.reconstructed, download.cloudFraction);
        });

    for (size_t i = 0; i < sites.size(); ++i)
        for (const auto &[day, sat] :
             synth::constellationSchedule(spec, sites[i].locationId)) {
            if (spec.maxCloudCoverage < 1.0 &&
                sites[i].weather->coverage(sites[i].locationId,
                                           static_cast<int>(std::floor(day))) >
                    spec.maxCloudCoverage)
                continue;
            s_->schedule.push_back({day, sat, i});
        }
    std::stable_sort(s_->schedule.begin(), s_->schedule.end(),
                     [](const Scheduled &a, const Scheduled &b) {
                         return a.day < b.day;
                     });
}

IngestPipeline::~IngestPipeline() = default;

IngestResult
IngestPipeline::run(Layers &layers, TraceCollector *trace)
{
    const synth::DatasetSpec &spec = s_->spec;
    const ground::GroundSegmentParams &groundParams = s_->ground;
    std::vector<Site> &sites = s_->sites;
    std::vector<Scheduled> &schedule = s_->schedule;
    ground::GroundStation &station = *s_->station;

    IngestResult out;
    std::vector<synth::Capture> rendered(kRenderBatch);
    for (size_t begin = 0; begin < schedule.size(); begin += kRenderBatch) {
        size_t end = std::min(schedule.size(), begin + kRenderBatch);
        // Render the batch with the clock stopped, one pool lane per
        // location (a SceneModel is not safe to share across threads).
        util::ThreadPool::global().parallelFor(
            0, static_cast<int64_t>(sites.size()), [&](int64_t si) {
                for (size_t k = begin; k < end; ++k)
                    if (schedule[k].site == static_cast<size_t>(si))
                        rendered[k - begin] =
                            sites[static_cast<size_t>(si)].sensor->capture(
                                schedule[k].day, schedule[k].satelliteId);
            });
        if (trace)
            TraceCollector::discard();

        for (size_t k = begin; k < end; ++k) {
            const Scheduled &item = schedule[k];
            Site &site = sites[item.site];
            synth::Capture &cap = rendered[k - begin];
            double t0 = nowSec();
            {
                LayerCall call(layers, "ground.station.advance", "ground");
                station.advanceTo(item.day);
            }
            if (std::floor(item.day) > site.currentDay) {
                site.currentDay = std::floor(item.day);
                site.uplink->startDay();
            }
            core::UplinkPlan plan;
            {
                LayerCall call(layers, "core.uplink", "core");
                plan = site.system->prepareCapture(
                    site.locationId, item.satelliteId, *site.uplink);
            }
            core::ProcessResult res;
            double processMs = 0.0;
            {
                LayerCall call(layers, "core.process", "core");
                res = site.system->process(cap);
                processMs = call.elapsedMs();
            }
            if (!res.dropped) {
                ground::CaptureDownload download;
                download.locationId = site.locationId;
                download.satelliteId = item.satelliteId;
                download.captureDay = item.day;
                download.referenceDay = std::isfinite(res.referenceAgeDays)
                                            ? item.day - res.referenceAgeDays
                                            : -1.0;
                download.fullDownload = res.fullDownload;
                {
                    LayerCall call(layers, "codec.serialize", "codec");
                    for (const auto &enc : res.encodedBands)
                        download.bandPayloads.push_back(enc.serialize());
                }
                download.reconstructed = std::move(res.reconstructed);
                download.cloudFraction = cap.cloudCoverage;
                LayerCall call(layers, "ground.station.submit", "ground");
                station.submit(std::move(download));
            }
            double ms = (nowSec() - t0) * 1000.0;

            ++out.iterations;
            out.iterationMs.add(ms);
            out.loopSec += ms / 1000.0;
            out.uplinkBytes += plan.bytes;
            layers.addTime("cloud.detect", res.cloudDetectSec * 1000.0);
            double stageMs = (res.cloudDetectSec + res.changeDetectSec +
                              res.encodeSec) *
                             1000.0;
            layers.addTime("core.reconstruct",
                           std::max(0.0, processMs - stageMs));
            if (res.dropped) {
                ++out.dropped;
            } else {
                ++out.submitted;
                out.downloadMs.add(ms);
                out.downlinkBytes += static_cast<double>(res.downlinkBytes);
                out.psnrSum += res.psnr;
                out.tileFracSum += res.downloadedTileFraction;
                if (res.fullDownload)
                    ++out.fullDownloads;
                else
                    layers.addTime("change.detect",
                                   res.changeDetectSec * 1000.0);
                layers.addTime("codec.encode", res.encodeSec * 1000.0);
                if (std::isfinite(res.referenceAgeDays)) {
                    out.refAgeSum += res.referenceAgeDays;
                    ++out.refAgeCount;
                }
            }
            cap = synth::Capture();
        }
        if (trace)
            trace->flush();
    }

    // Flush the downlink the way LocationSimulation::run does: enough
    // extra days for every transfer to complete or exhaust retention.
    const ground::GroundSegmentParams &gp = groundParams;
    double flushDays =
        std::ceil(static_cast<double>(gp.channel.retentionContacts) /
                  static_cast<double>(std::max(gp.contactsPerDay, 1))) +
        1.0;
    double lastDay = schedule.empty() ? spec.endDay : schedule.back().day;
    double t0 = nowSec();
    {
        LayerCall call(layers, "ground.station.advance", "ground");
        station.advanceTo(lastDay + flushDays);
    }
    out.loopSec += nowSec() - t0;
    if (trace)
        trace->flush();

    out.station = station.stats();
    out.recordsAppended = station.archive().recordCount();
    out.archiveFileBytes = station.archive().fileBytes();
    return out;
}

uint64_t
archiveDigest(const ground::Archive &archive)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (size_t i = 0; i < archive.recordCount(); ++i) {
        ground::RecordEntry e = archive.record(i);
        const ground::RecordMeta &m = e.meta;
        int32_t ids[3] = {m.locationId, m.satelliteId, m.band};
        h = fnv1a(ids, sizeof ids, h);
        h = fnv1a(&m.captureDay, sizeof m.captureDay, h);
        h = fnv1a(&m.referenceDay, sizeof m.referenceDay, h);
        ground::PayloadView v = archive.payloadView(i);
        h = fnv1a(v.data(), v.size(), h);
    }
    return h;
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace perfbench

#include "core/simulation.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/units.hh"

namespace earthplus::core {

namespace {

/** Cloud threshold for accepting ground references (§4.2). */
constexpr double kMaxCloudForReference = 0.01;

} // anonymous namespace

const char *
systemName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::EarthPlus:
        return "Earth+";
      case SystemKind::Kodan:
        return "Kodan";
      case SystemKind::SatRoI:
        return "SatRoI";
      case SystemKind::DownloadAll:
        return "DownloadAll";
    }
    return "?";
}

double
SimSummary::requiredDownlinkMbps(double contactSeconds,
                                 double scaleToRealBytes) const
{
    if (processedCount == 0)
        return 0.0;
    double meanBytes =
        totalDownlinkBytes / static_cast<double>(processedCount);
    return units::bytesOverSecondsToMbps(meanBytes * scaleToRealBytes,
                                         contactSeconds);
}

LocationSimulation::LocationSimulation(const synth::DatasetSpec &spec,
                                       int locationIdx, SystemKind kind,
                                       const SimParams &params)
    : spec_(spec), locationIdx_(locationIdx), kind_(kind), params_(params)
{
    EP_ASSERT(locationIdx >= 0 &&
              locationIdx < static_cast<int>(spec.locations.size()),
              "location index %d out of range", locationIdx);

    synth::SceneConfig sc;
    sc.width = spec.width;
    sc.height = spec.height;
    sc.tileSize = spec.tileSize;
    sc.bands = spec.bands;
    sc.historyStartDay = spec.startDay - 120.0;
    sc.horizonDays = spec.endDay + 30.0;
    scene_ = std::make_unique<synth::SceneModel>(
        spec.locations[static_cast<size_t>(locationIdx)], sc);

    synth::WeatherParams wp;
    wp.seed = spec.seed ^ 0x77ea77e5ULL;
    weather_ = std::make_unique<synth::WeatherProcess>(wp);

    synth::SensorParams sp;
    sp.seed = spec.seed ^ 0x5e45042ULL;
    captureSim_ = std::make_unique<synth::CaptureSimulator>(
        *scene_, *weather_, sp);

    ground_ = std::make_unique<ReferenceStore>(kMaxCloudForReference);

    if (params.groundSegment.enabled) {
        // Route downloads through the packetized downlink: references
        // reach the store only when their download completes.
        params_.system.externalGroundIngest = true;
        ReferenceStore *store = ground_.get();
        station_ = std::make_unique<ground::GroundStation>(
            params.groundSegment,
            [store](const ground::CaptureDownload &download) {
                store->offer(download.reconstructed,
                             download.cloudFraction);
            });
    }

    switch (kind) {
      case SystemKind::EarthPlus: {
        auto sys = std::make_unique<EarthPlusSystem>(
            spec.bands, params_.system, params_.uplink, *ground_);
        earthPlus_ = sys.get();
        system_ = std::move(sys);
        break;
      }
      case SystemKind::Kodan:
        system_ = std::make_unique<KodanSystem>(spec.bands,
                                                params_.system);
        break;
      case SystemKind::SatRoI:
        system_ = std::make_unique<SatRoISystem>(spec.bands,
                                                 params_.system);
        break;
      case SystemKind::DownloadAll:
        system_ = std::make_unique<DownloadAllSystem>(spec.bands,
                                                      params_.system);
        break;
    }
}

LocationSimulation::~LocationSimulation() = default;

SimSummary
LocationSimulation::run()
{
    SimSummary summary;
    int locationId =
        spec_.locations[static_cast<size_t>(locationIdx_)].locationId;
    auto schedule = synth::constellationSchedule(spec_, locationId);

    orbit::DailyByteBudget uplinkBudget(params_.uplinkBytesPerDay);
    double currentDay = std::floor(spec_.startDay) - 1.0;

    int processed = 0;
    for (const auto &[day, satelliteId] : schedule) {
        if (params_.maxCaptures > 0 &&
            processed >= params_.maxCaptures)
            break;
        ++processed;

        // Renew the uplink allowance at day boundaries.
        if (std::floor(day) > currentDay) {
            currentDay = std::floor(day);
            uplinkBudget.startDay();
        }

        // Dataset-level cloud filter (Table 2): captures cloudier than
        // the dataset admits simply do not exist in it.
        if (spec_.maxCloudCoverage < 1.0) {
            int dayIdx = static_cast<int>(std::floor(day));
            if (weather_->coverage(locationId, dayIdx) >
                spec_.maxCloudCoverage)
                continue;
        }

        CaptureMetrics m;
        m.day = day;
        m.satelliteId = satelliteId;

        // Land every download whose contacts have passed, so the
        // reference store reflects what the ground has actually
        // received by now.
        if (station_)
            station_->advanceTo(day);

        // Ground contact before the pass: push a reference update.
        if (earthPlus_) {
            UplinkPlan plan = earthPlus_->prepareCapture(
                locationId, satelliteId, uplinkBudget);
            m.uplinkBytes = plan.bytes;
            summary.totalUplinkBytes += plan.bytes;
        }

        synth::Capture cap = captureSim_->capture(day, satelliteId);
        ProcessResult res = system_->process(cap);

        m.dropped = res.dropped;
        m.fullDownload = res.fullDownload;
        m.downlinkBytes = res.downlinkBytes;
        m.downloadedTileFraction = res.downloadedTileFraction;
        m.psnr = res.psnr;
        m.referenceAgeDays = res.referenceAgeDays;
        m.cloudDetectSec = res.cloudDetectSec;
        m.changeDetectSec = res.changeDetectSec;
        m.encodeSec = res.encodeSec;
        summary.captures.push_back(m);

        if (res.dropped) {
            ++summary.droppedCount;
            continue;
        }

        // Queue the capture on the downlink: serialized per band,
        // packetized, transmitted at the coming contacts.
        if (station_) {
            ground::CaptureDownload download;
            download.locationId = locationId;
            download.satelliteId = satelliteId;
            download.captureDay = day;
            download.referenceDay = std::isfinite(res.referenceAgeDays)
                ? day - res.referenceAgeDays
                : -1.0;
            download.fullDownload = res.fullDownload;
            for (const auto &enc : res.encodedBands)
                download.bandPayloads.push_back(enc.serialize());
            download.reconstructed = res.reconstructed;
            download.cloudFraction = cap.cloudCoverage;
            station_->submit(std::move(download));
        }

        ++summary.processedCount;
        summary.totalDownlinkBytes +=
            static_cast<double>(res.downlinkBytes);
        if (summary.bandDownlinkBytes.size() <
            res.bandDownlinkBytes.size())
            summary.bandDownlinkBytes.resize(
                res.bandDownlinkBytes.size(), 0.0);
        for (size_t b = 0; b < res.bandDownlinkBytes.size(); ++b)
            summary.bandDownlinkBytes[b] +=
                static_cast<double>(res.bandDownlinkBytes[b]);
        summary.meanPsnr += res.psnr;
        summary.meanDownloadedFraction += res.downloadedTileFraction;
        if (std::isfinite(res.referenceAgeDays)) {
            summary.meanReferenceAgeDays += res.referenceAgeDays;
            ++summary.referencedCount;
        }
        if (res.fullDownload)
            ++summary.fullDownloadCount;
    }

    if (summary.processedCount > 0) {
        double n = static_cast<double>(summary.processedCount);
        summary.meanPsnr /= n;
        summary.meanDownloadedFraction /= n;
    }
    if (summary.referencedCount > 0)
        summary.meanReferenceAgeDays /=
            static_cast<double>(summary.referencedCount);

    if (station_) {
        // Flush the downlink: enough extra days for every pending
        // transfer to complete or exhaust its retention window,
        // whatever the configured contact cadence and retention.
        const ground::GroundSegmentParams &gp = params_.groundSegment;
        double flushDays =
            std::ceil(static_cast<double>(gp.channel.retentionContacts) /
                      static_cast<double>(std::max(gp.contactsPerDay, 1))) +
            1.0;
        double lastDay = schedule.empty() ? spec_.endDay
                                          : schedule.back().first;
        station_->advanceTo(lastDay + flushDays);
        summary.groundEnabled = true;
        summary.groundStats = station_->stats();
    }
    return summary;
}

std::vector<SimSummary>
runSimulationsBatch(const std::vector<BatchSimJob> &jobs)
{
    return util::parallelMap(jobs.size(), [&](size_t i) {
        const BatchSimJob &job = jobs[i];
        LocationSimulation sim(job.spec, job.locationIdx, job.kind,
                               job.params);
        return sim.run();
    });
}

} // namespace earthplus::core

#include "ground/station.hh"

#include <limits>

#include "util/logging.hh"

namespace earthplus::ground {

GroundStation::GroundStation(const GroundSegmentParams &params,
                             CompletionFn onComplete)
    : params_(params), onComplete_(std::move(onComplete)),
      contacts_(params.contactsPerDay),
      channel_(params.channel), archive_(params.archivePath),
      lastAdvanceDay_(-std::numeric_limits<double>::infinity())
{
}

void
GroundStation::submit(CaptureDownload download)
{
    uint64_t id = nextCaptureId_++;
    PendingCapture cap;
    for (size_t b = 0; b < download.bandPayloads.size(); ++b) {
        uint32_t streamId = channel_.submit(download.bandPayloads[b]);
        cap.streams[streamId] = static_cast<int>(b);
        streamToCapture_[streamId] = id;
    }
    cap.download = std::move(download);
    if (cap.streams.empty()) {
        // Nothing to transmit: the capture completes on the spot
        // instead of sitting in pending_ with no stream to resolve it.
        completeCapture(cap, cap.download.captureDay);
        return;
    }
    pending_.emplace(id, std::move(cap));
}

void
GroundStation::completeCapture(PendingCapture &cap, double day)
{
    // Byte-identity invariant: what the ground reassembled must be
    // exactly what the satellite serialized.
    bool identical = true;
    for (const auto &[band, payload] : cap.received)
        if (payload !=
            cap.download.bandPayloads[static_cast<size_t>(band)])
            identical = false;

    for (const auto &[band, payload] : cap.received) {
        RecordMeta meta;
        meta.locationId = cap.download.locationId;
        meta.satelliteId = cap.download.satelliteId;
        meta.band = band;
        meta.captureDay = cap.download.captureDay;
        meta.referenceDay = cap.download.referenceDay;
        meta.fullDownload = cap.download.fullDownload;
        archive_.append(meta, payload);
    }

    ++stats_.capturesCompleted;
    if (identical)
        ++stats_.capturesByteIdentical;
    stats_.lastCompletionDay = day;
    if (onComplete_)
        onComplete_(cap.download);
}

int
GroundStation::advanceTo(double day)
{
    int completed = 0;
    for (double contact = contacts_.nextContactAtOrAfter(
             lastAdvanceDay_ == -std::numeric_limits<double>::infinity()
                 ? day - 1.0
                 : lastAdvanceDay_ + 1e-9);
         contact <= day; contact = contacts_.nextContactAtOrAfter(
             contact + 1e-9)) {
        if (channel_.pendingCount() == 0)
            continue;
        DownlinkChannel::ContactReport report = channel_.runContact();

        for (auto &delivery : report.delivered) {
            auto itCap = streamToCapture_.find(delivery.streamId);
            if (itCap == streamToCapture_.end())
                continue;
            uint64_t capId = itCap->second;
            streamToCapture_.erase(itCap);
            PendingCapture &cap = pending_.at(capId);
            int band = cap.streams.at(delivery.streamId);
            cap.streams.erase(delivery.streamId);
            cap.received[band] = std::move(delivery.payload);
            if (cap.streams.empty()) {
                // A capture with any failed band is lost even when the
                // remaining bands arrive.
                if (!cap.failed) {
                    completeCapture(cap, contact);
                    ++completed;
                }
                pending_.erase(capId);
            }
        }

        for (uint32_t streamId : report.failed) {
            auto itCap = streamToCapture_.find(streamId);
            if (itCap == streamToCapture_.end())
                continue;
            uint64_t capId = itCap->second;
            streamToCapture_.erase(itCap);
            auto itPending = pending_.find(capId);
            if (itPending == pending_.end())
                continue;
            PendingCapture &cap = itPending->second;
            cap.streams.erase(streamId);
            if (!cap.failed) {
                cap.failed = true;
                ++stats_.capturesFailed;
            }
            // Forget the capture once its last stream resolves.
            if (cap.streams.empty())
                pending_.erase(itPending);
        }
    }
    lastAdvanceDay_ = std::max(lastAdvanceDay_, day);
    stats_.channel = channel_.stats();
    return completed;
}

StationStats
GroundStation::stats() const
{
    StationStats s = stats_;
    s.channel = channel_.stats();
    return s;
}

} // namespace earthplus::ground

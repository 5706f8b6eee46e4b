/**
 * @file
 * Ground station: the receive side of the ground segment.
 *
 * Ties the downlink channel, the persistent archive and the consumer
 * of completed downloads together. A capture submitted by the
 * simulation becomes one packetized transfer per band; the station
 * advances through ground contacts (orbit::ContactSchedule), collects
 * completed band streams, and only when *every* band of a capture has
 * been reassembled byte-identically does the capture count as
 * downloaded: its records are appended to the archive and the
 * completion callback fires (the simulation uses it to feed the
 * ReferenceStore — references become available on the ground when the
 * download finishes, not at capture time).
 *
 * Captures whose transfers exhaust the satellite's retention window
 * (Appendix A: two contacts) are lost and reported as failed.
 */

#ifndef EARTHPLUS_GROUND_STATION_HH
#define EARTHPLUS_GROUND_STATION_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ground/archive.hh"
#include "ground/packet.hh"
#include "orbit/contact.hh"
#include "raster/image.hh"

namespace earthplus::ground {

/** Configuration of a simulated ground segment. */
struct GroundSegmentParams
{
    /** Route downloads through the ground segment at all. */
    bool enabled = false;
    /** Downlink channel model (packet size, loss, retention, budget). */
    ChannelParams channel;
    /** Ground contacts per day (paper §6.1: 7). */
    int contactsPerDay = 7;
    /** Phase of the first daily contact. */
    double contactPhaseDays = 0.0;
    /**
     * Archive directory path; required when `enabled` (an empty path
     * is fatal). Each GroundStation owns its directory exclusively —
     * concurrent simulations (core::runSimulationsBatch jobs) must use
     * distinct paths, or their interleaved appends corrupt the shard
     * files.
     */
    std::string archivePath;
};

/** One capture queued for download. */
struct CaptureDownload
{
    int locationId = 0;      ///< Captured location.
    int satelliteId = 0;     ///< Capturing satellite.
    double captureDay = 0.0; ///< Capture time in days.
    /** Reference the deltas were encoded against (< 0 = none). */
    double referenceDay = -1.0;
    /** Guaranteed full download (self-contained streams). */
    bool fullDownload = false;
    /** Serialized EncodedImage per band, band-index order. */
    std::vector<std::vector<uint8_t>> bandPayloads;
    /** Ground reconstruction, released to the consumer on completion. */
    raster::Image reconstructed;
    /** Ground-side cloud coverage of the reconstruction. */
    double cloudFraction = 1.0;
};

/** Station-level statistics (channel stats included by value). */
struct StationStats
{
    ChannelStats channel;            ///< Downlink-channel statistics.
    uint32_t capturesCompleted = 0;  ///< Captures fully downloaded.
    uint32_t capturesFailed = 0;     ///< Captures lost to retention.
    /** Completed captures whose payloads matched bit for bit. */
    uint32_t capturesByteIdentical = 0;
    /** Day the most recent capture completed. */
    double lastCompletionDay = 0.0;
};

/**
 * Receives packetized downloads across contacts and lands them in the
 * archive.
 */
class GroundStation
{
  public:
    /** Invoked when a capture's download completes. */
    using CompletionFn = std::function<void(const CaptureDownload &)>;

    /**
     * @param params Ground segment configuration.
     * @param onComplete Optional completion callback.
     */
    explicit GroundStation(const GroundSegmentParams &params,
                           CompletionFn onComplete = nullptr);

    /** Queue a capture; transmission starts at the next contact. */
    void submit(CaptureDownload download);

    /**
     * Run every ground contact in (lastAdvanceDay, day], completing
     * and archiving downloads as their packets arrive.
     *
     * @return Captures completed during the advance.
     */
    int advanceTo(double day);

    /** The archive downloads land in. */
    Archive &archive() { return archive_; }

    /** The archive downloads land in (const view). */
    const Archive &archive() const { return archive_; }

    /** Captures submitted but not yet completed or failed. */
    size_t pendingCaptures() const { return pending_.size(); }

    /** Station-level statistics (current channel stats included). */
    StationStats stats() const;

    /** Configuration this station was built with. */
    const GroundSegmentParams &params() const { return params_; }

  private:
    struct PendingCapture
    {
        CaptureDownload download;
        /** streamId -> band index; erased as bands complete. */
        std::map<uint32_t, int> streams;
        /** Reassembled payload per completed band. */
        std::map<int, std::vector<uint8_t>> received;
        bool failed = false;
    };

    void completeCapture(PendingCapture &cap, double day);

    GroundSegmentParams params_;
    CompletionFn onComplete_;
    orbit::ContactSchedule contacts_;
    DownlinkChannel channel_;
    Archive archive_;
    /** Keyed by an internal capture id. */
    std::map<uint64_t, PendingCapture> pending_;
    /** streamId -> capture id. */
    std::map<uint32_t, uint64_t> streamToCapture_;
    uint64_t nextCaptureId_ = 1;
    double lastAdvanceDay_;
    StationStats stats_;
};

} // namespace earthplus::ground

#endif // EARTHPLUS_GROUND_STATION_HH

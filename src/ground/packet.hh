/**
 * @file
 * Downlink packet framing, reassembly and the lossy contact channel.
 *
 * The satellite cannot hand an `EncodedImage` to the ground as a C++
 * object: the X-band downlink carries fixed-size frames, packets get
 * lost, and a capture's payload rarely fits into a single 10-minute
 * contact. This module models that boundary at the byte level:
 *
 *  - packetize() frames an opaque payload into fixed-size packets,
 *    each with a validated header (magic, stream id, sequence number,
 *    total count, payload length) protected by its own CRC32 plus a
 *    CRC32 of the payload slice.
 *  - StreamReassembler accepts packets in any order, rejects corrupt
 *    or foreign ones, tracks which sequence numbers are still missing
 *    (the ARQ feedback sent back to the satellite), and reproduces the
 *    original payload byte-identically once complete.
 *  - DownlinkChannel simulates per-contact transmission against a
 *    byte budget (orbit::LinkBudget) with Bernoulli packet loss and
 *    ARQ-style retransmission of missing packets on the next contact.
 *    Transfers follow the Appendix-A storage rule: the satellite keeps
 *    a capture for `retentionContacts` consecutive contacts; a
 *    transfer still incomplete after that is dropped and counted as
 *    failed.
 *
 * Payloads are opaque here: nothing in this module parses or cuts
 * them, and a payload larger than one contact simply spans several.
 */

#ifndef EARTHPLUS_GROUND_PACKET_HH
#define EARTHPLUS_GROUND_PACKET_HH

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "util/rng.hh"

namespace earthplus::ground {

/** Serialized size of a packet header in bytes. */
constexpr size_t kPacketHeaderBytes = 28;

/** Parsed packet header (wire layout is little-endian PODs). */
struct PacketHeader
{
    /** Transfer this packet belongs to. */
    uint32_t streamId = 0;
    /** Packet index within the stream, in [0, totalPackets). */
    uint32_t seq = 0;
    /** Total packets of the stream. */
    uint32_t totalPackets = 0;
    /** Payload bytes carried by this packet. */
    uint32_t payloadLen = 0;
    /** CRC32 of the payload bytes. */
    uint32_t payloadCrc = 0;
};

/**
 * Frame a payload into packets of at most `payloadBytesPerPacket`
 * payload bytes each (the last packet may be short). An empty payload
 * produces a single zero-length packet so the stream still completes.
 */
std::vector<std::vector<uint8_t>>
packetize(uint32_t streamId, const std::vector<uint8_t> &payload,
          size_t payloadBytesPerPacket);

/** Why a packet was not accepted. */
enum class PacketVerdict
{
    Accepted,      ///< New payload slice stored.
    Duplicate,     ///< Valid but already held (idempotent).
    BadHeader,     ///< Truncated, bad magic, or header CRC mismatch.
    BadPayloadCrc, ///< Header fine, payload corrupt — dropped.
    WrongStream,   ///< streamId does not match this reassembler.
    Inconsistent,  ///< seq/totalPackets disagree with the stream.
};

/** Parse and validate a packet; nullopt when the header is invalid. */
std::optional<PacketHeader>
parsePacketHeader(const std::vector<uint8_t> &packet);

/**
 * Ground-side reassembly of one packetized stream.
 */
class StreamReassembler
{
  public:
    /** @param streamId Stream this reassembler accepts. */
    explicit StreamReassembler(uint32_t streamId);

    /** Validate one received packet and store its payload slice. */
    PacketVerdict accept(const std::vector<uint8_t> &packet);

    /** True once every sequence number has been received. */
    bool complete() const;

    /**
     * Sequence numbers not yet received — the ARQ feedback. Empty
     * until the first packet reveals totalPackets.
     */
    std::vector<uint32_t> missingSeqs() const;

    /** Reassembled payload (must be complete()). */
    std::vector<uint8_t> payload() const;

    /** Stream id this reassembler accepts. */
    uint32_t streamId() const { return streamId_; }

  private:
    uint32_t streamId_;
    /** 0 until the first accepted packet. */
    uint32_t totalPackets_ = 0;
    uint32_t received_ = 0;
    std::vector<uint8_t> have_;
    std::vector<std::vector<uint8_t>> slices_;
};

/** Aggregate transmission statistics of a DownlinkChannel. */
struct ChannelStats
{
    uint64_t packetsSent = 0; ///< Packets transmitted (incl. lost).
    uint64_t packetsLost = 0; ///< Packets dropped by the channel.
    uint64_t packetsRetransmitted = 0; ///< ARQ re-sends.
    uint64_t bytesSent = 0;   ///< Wire bytes (headers included).
    uint32_t streamsCompleted = 0; ///< Transfers fully reassembled.
    uint32_t streamsFailed = 0; ///< Transfers dropped by retention.

    /** Fraction of sent packets that were lost. */
    double lossRate() const
    {
        return packetsSent
            ? static_cast<double>(packetsLost) /
                  static_cast<double>(packetsSent)
            : 0.0;
    }
};

/** Configuration of the simulated downlink channel. */
struct ChannelParams
{
    /** Payload bytes per packet (header adds kPacketHeaderBytes). */
    size_t payloadBytesPerPacket = 1024;
    /** Per-packet Bernoulli loss probability. */
    double lossProbability = 0.0;
    /** Bytes transferable during one contact (headers included). */
    double bytesPerContact = 15e9;
    /**
     * Contacts a transfer is retained on board before being dropped
     * (Appendix A: captures are kept for two consecutive contacts as
     * retransmission insurance).
     */
    int retentionContacts = 2;
    /** Seed of the loss process. */
    uint64_t seed = 0x600dcafeULL;
};

/**
 * Satellite-to-ground transfer queue across lossy contacts.
 */
class DownlinkChannel
{
  public:
    explicit DownlinkChannel(const ChannelParams &params);

    /**
     * Queue a payload for transmission at the next contact.
     *
     * @return The stream id assigned to the transfer.
     */
    uint32_t submit(std::vector<uint8_t> payload);

    /** A transfer that completed during a contact. */
    struct Delivery
    {
        uint32_t streamId = 0;
        std::vector<uint8_t> payload;
    };

    /** What happened during one contact. */
    struct ContactReport
    {
        /** Transfers whose reassembly completed this contact. */
        std::vector<Delivery> delivered;
        /** Transfers dropped after exhausting their retention. */
        std::vector<uint32_t> failed;
    };

    /**
     * Simulate one ground contact: transmit fresh packets and ARQ
     * retransmissions of earlier losses, oldest transfer first, until
     * the contact byte budget runs out. Transfers past their retention
     * window are dropped and reported (and counted in stats()).
     */
    ContactReport runContact();

    /** Transfers still queued or partially received. */
    size_t pendingCount() const { return pending_.size(); }

    /** Aggregate transmission statistics so far. */
    const ChannelStats &stats() const { return stats_; }

    /** Configuration this channel was built with. */
    const ChannelParams &params() const { return params_; }

  private:
    struct Transfer
    {
        uint32_t streamId;
        std::vector<std::vector<uint8_t>> packets;
        StreamReassembler reassembler;
        /** Seqs already attempted at least once (for retransmit stats). */
        std::vector<uint8_t> attempted;
        int contactsUsed = 0;
    };

    ChannelParams params_;
    Rng rng_;
    uint32_t nextStreamId_ = 1;
    std::deque<Transfer> pending_;
    ChannelStats stats_;
};

} // namespace earthplus::ground

#endif // EARTHPLUS_GROUND_PACKET_HH

#include "ground/packet.hh"

#include <algorithm>
#include <cstring>

#include "util/bytes.hh"
#include "util/crc32.hh"
#include "util/logging.hh"

namespace earthplus::ground {

namespace {

// "EPPK": downlink packet magic.
constexpr uint32_t kPacketMagic = 0x4B505045;

} // anonymous namespace

using util::appendPod;
using util::readPodAt;

std::vector<std::vector<uint8_t>>
packetize(uint32_t streamId, const std::vector<uint8_t> &payload,
          size_t payloadBytesPerPacket)
{
    EP_ASSERT(payloadBytesPerPacket > 0, "packet payload size must be > 0");
    size_t total = payload.empty()
        ? 1
        : (payload.size() + payloadBytesPerPacket - 1) /
              payloadBytesPerPacket;
    EP_ASSERT(total <= UINT32_MAX, "payload needs too many packets");

    std::vector<std::vector<uint8_t>> packets;
    packets.reserve(total);
    for (size_t seq = 0; seq < total; ++seq) {
        size_t off = seq * payloadBytesPerPacket;
        size_t len = payload.empty()
            ? 0
            : std::min(payloadBytesPerPacket, payload.size() - off);

        std::vector<uint8_t> pkt;
        pkt.reserve(kPacketHeaderBytes + len);
        appendPod(pkt, kPacketMagic);
        appendPod(pkt, streamId);
        appendPod(pkt, static_cast<uint32_t>(seq));
        appendPod(pkt, static_cast<uint32_t>(total));
        appendPod(pkt, static_cast<uint32_t>(len));
        appendPod(pkt, len ? util::crc32(payload.data() + off, len)
                           : util::crc32(nullptr, 0));
        // Header CRC over everything before it, so a corrupted header
        // is rejected instead of mis-routing the payload.
        appendPod(pkt, util::crc32(pkt.data(), pkt.size()));
        if (len)
            pkt.insert(pkt.end(), payload.begin() + static_cast<ptrdiff_t>(off),
                       payload.begin() + static_cast<ptrdiff_t>(off + len));
        packets.push_back(std::move(pkt));
    }
    return packets;
}

std::optional<PacketHeader>
parsePacketHeader(const std::vector<uint8_t> &packet)
{
    if (packet.size() < kPacketHeaderBytes)
        return std::nullopt;
    if (readPodAt<uint32_t>(packet.data(), 0) != kPacketMagic)
        return std::nullopt;
    uint32_t headerCrc = readPodAt<uint32_t>(packet.data(), 24);
    if (util::crc32(packet.data(), 24) != headerCrc)
        return std::nullopt;
    PacketHeader h;
    h.streamId = readPodAt<uint32_t>(packet.data(), 4);
    h.seq = readPodAt<uint32_t>(packet.data(), 8);
    h.totalPackets = readPodAt<uint32_t>(packet.data(), 12);
    h.payloadLen = readPodAt<uint32_t>(packet.data(), 16);
    h.payloadCrc = readPodAt<uint32_t>(packet.data(), 20);
    if (h.totalPackets == 0 || h.seq >= h.totalPackets)
        return std::nullopt;
    if (packet.size() != kPacketHeaderBytes + h.payloadLen)
        return std::nullopt;
    return h;
}

StreamReassembler::StreamReassembler(uint32_t streamId)
    : streamId_(streamId)
{
}

PacketVerdict
StreamReassembler::accept(const std::vector<uint8_t> &packet)
{
    auto header = parsePacketHeader(packet);
    if (!header)
        return PacketVerdict::BadHeader;
    if (header->streamId != streamId_)
        return PacketVerdict::WrongStream;
    if (totalPackets_ == 0) {
        totalPackets_ = header->totalPackets;
        have_.assign(totalPackets_, 0);
        slices_.assign(totalPackets_, {});
    } else if (header->totalPackets != totalPackets_) {
        return PacketVerdict::Inconsistent;
    }
    const uint8_t *payload = packet.data() + kPacketHeaderBytes;
    if (util::crc32(payload, header->payloadLen) != header->payloadCrc)
        return PacketVerdict::BadPayloadCrc;
    if (have_[header->seq])
        return PacketVerdict::Duplicate;
    have_[header->seq] = 1;
    slices_[header->seq].assign(payload, payload + header->payloadLen);
    ++received_;
    return PacketVerdict::Accepted;
}

bool
StreamReassembler::complete() const
{
    return totalPackets_ > 0 && received_ == totalPackets_;
}

std::vector<uint32_t>
StreamReassembler::missingSeqs() const
{
    std::vector<uint32_t> missing;
    for (uint32_t s = 0; s < totalPackets_; ++s)
        if (!have_[s])
            missing.push_back(s);
    return missing;
}

std::vector<uint8_t>
StreamReassembler::payload() const
{
    EP_ASSERT(complete(), "stream %u reassembly incomplete (%u/%u)",
              streamId_, received_, totalPackets_);
    size_t total = 0;
    for (const auto &s : slices_)
        total += s.size();
    std::vector<uint8_t> out;
    out.reserve(total);
    for (const auto &s : slices_)
        out.insert(out.end(), s.begin(), s.end());
    return out;
}

DownlinkChannel::DownlinkChannel(const ChannelParams &params)
    : params_(params), rng_(params.seed)
{
    EP_ASSERT(params.payloadBytesPerPacket > 0, "invalid packet size");
    EP_ASSERT(params.lossProbability >= 0.0 &&
                  params.lossProbability < 1.0,
              "loss probability %f outside [0, 1)",
              params.lossProbability);
    EP_ASSERT(params.retentionContacts >= 1,
              "need at least one retention contact");
}

uint32_t
DownlinkChannel::submit(std::vector<uint8_t> payload)
{
    uint32_t id = nextStreamId_++;
    Transfer t{id, packetize(id, payload, params_.payloadBytesPerPacket),
               StreamReassembler(id), {}, 0};
    t.attempted.assign(t.packets.size(), 0);
    pending_.push_back(std::move(t));
    return id;
}

DownlinkChannel::ContactReport
DownlinkChannel::runContact()
{
    ContactReport report;
    double budget = params_.bytesPerContact;

    // Oldest transfer first: ARQ retransmissions of earlier captures
    // outrank fresh data, so nothing starves inside its retention
    // window.
    for (auto &t : pending_) {
        ++t.contactsUsed;
        if (budget <= 0.0)
            continue;
        // The ground's ARQ feedback names the missing seqs; before any
        // packet arrives the ground knows nothing, so every packet is
        // due.
        std::vector<uint32_t> want = t.reassembler.missingSeqs();
        if (want.empty() && !t.reassembler.complete()) {
            want.resize(t.packets.size());
            for (uint32_t s = 0; s < want.size(); ++s)
                want[s] = s;
        }
        for (uint32_t seq : want) {
            double wire =
                static_cast<double>(t.packets[seq].size());
            if (budget < wire)
                break; // contact over; rest goes next pass
            budget -= wire;
            ++stats_.packetsSent;
            stats_.bytesSent += t.packets[seq].size();
            if (t.attempted[seq])
                ++stats_.packetsRetransmitted;
            t.attempted[seq] = 1;
            if (rng_.bernoulli(params_.lossProbability)) {
                ++stats_.packetsLost;
                continue;
            }
            t.reassembler.accept(t.packets[seq]);
        }
        if (t.reassembler.complete())
            report.delivered.push_back(
                {t.streamId, t.reassembler.payload()});
    }

    // Drop completed transfers and those past their retention window.
    std::deque<Transfer> still;
    for (auto &t : pending_) {
        if (t.reassembler.complete()) {
            ++stats_.streamsCompleted;
            continue;
        }
        if (t.contactsUsed >= params_.retentionContacts) {
            ++stats_.streamsFailed;
            report.failed.push_back(t.streamId);
            continue;
        }
        still.push_back(std::move(t));
    }
    pending_ = std::move(still);
    return report;
}

} // namespace earthplus::ground

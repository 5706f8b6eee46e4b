/**
 * @file
 * Tests for the ground segment: CRC32, packet framing/reassembly, the
 * lossy ARQ downlink channel, the persistent encoded archive
 * (including corruption recovery), the decode-on-demand tile server,
 * and the end-to-end downlink -> archive -> serve path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "codec/codec.hh"
#include "core/simulation.hh"
#include "ground/archive.hh"
#include "ground/crc32.hh"
#include "ground/packet.hh"
#include "ground/station.hh"
#include "ground/tile_server.hh"
#include "raster/metrics.hh"
#include "synth/dataset.hh"
#include "util/failpoint.hh"
#include "util/rng.hh"
#include "util/telemetry.hh"

#include "temp_path.hh"

using namespace earthplus;
using namespace earthplus::ground;
using testutil::TempPath;

namespace {

/** Container file of the shard that `locationId` hashes to. */
std::string
shardPathFor(const Archive &archive, int locationId)
{
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%03d.epar",
                  archive.shardForLocation(locationId));
    return archive.path() + "/" + name;
}

/** Two locations mapping to different shards of `archive`. */
std::pair<int, int>
twoLocationsInDifferentShards(const Archive &archive)
{
    int first = 0;
    for (int candidate = 1; candidate < 1024; ++candidate)
        if (archive.shardForLocation(candidate) !=
            archive.shardForLocation(first))
            return {first, candidate};
    ADD_FAILURE() << "no shard-distinct location pair found";
    return {0, 0};
}

/** Deterministic pseudo-random payload. */
std::vector<uint8_t>
randomPayload(size_t size, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(size);
    for (auto &b : out)
        b = static_cast<uint8_t>(rng.uniformInt(0, 255));
    return out;
}

/** Natural-image-like test content. */
raster::Plane
testPlane(int w, int h, uint64_t seed)
{
    raster::Plane p(w, h);
    Rng rng(seed);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            p.at(x, y) = 0.5f +
                         0.3f * std::sin(x * 0.05f) * std::cos(y * 0.07f) +
                         static_cast<float>(rng.normal(0.0, 0.01));
    p.clampTo(0.0f, 1.0f);
    return p;
}

} // namespace

// ------------------------------------------------------------------ crc32

TEST(Crc32, KnownVector)
{
    // The canonical IEEE 802.3 check value.
    const char *s = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const uint8_t *>(s), 9), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    auto payload = randomPayload(1000, 7);
    uint32_t oneShot = crc32(payload.data(), payload.size());
    uint32_t inc = crc32(payload.data(), 400);
    inc = crc32Update(inc, payload.data() + 400, 600);
    EXPECT_EQ(inc, oneShot);
}

// ---------------------------------------------------------------- packets

TEST(Packet, RoundTripAllInOrder)
{
    auto payload = randomPayload(10000, 1);
    auto packets = packetize(42, payload, 1024);
    EXPECT_EQ(packets.size(), 10u); // ceil(10000/1024)

    StreamReassembler rx(42);
    for (const auto &p : packets)
        EXPECT_EQ(rx.accept(p), PacketVerdict::Accepted);
    EXPECT_TRUE(rx.complete());
    EXPECT_EQ(rx.payload(), payload);
}

TEST(Packet, OutOfOrderAndDuplicates)
{
    auto payload = randomPayload(5000, 2);
    auto packets = packetize(7, payload, 512);
    StreamReassembler rx(7);
    for (size_t i = packets.size(); i-- > 0;)
        EXPECT_EQ(rx.accept(packets[i]), PacketVerdict::Accepted);
    EXPECT_EQ(rx.accept(packets[0]), PacketVerdict::Duplicate);
    EXPECT_TRUE(rx.complete());
    EXPECT_EQ(rx.payload(), payload);
}

TEST(Packet, EmptyPayloadStillCompletes)
{
    auto packets = packetize(1, {}, 256);
    ASSERT_EQ(packets.size(), 1u);
    StreamReassembler rx(1);
    EXPECT_EQ(rx.accept(packets[0]), PacketVerdict::Accepted);
    EXPECT_TRUE(rx.complete());
    EXPECT_TRUE(rx.payload().empty());
}

TEST(Packet, CorruptPayloadIsDropped)
{
    auto payload = randomPayload(2000, 3);
    auto packets = packetize(9, payload, 500);
    // Flip one payload byte of packet 2: CRC must catch it.
    packets[2][kPacketHeaderBytes + 10] ^= 0xFF;
    StreamReassembler rx(9);
    EXPECT_EQ(rx.accept(packets[2]), PacketVerdict::BadPayloadCrc);
    EXPECT_EQ(rx.receivedCount(), 0u);
}

TEST(Packet, CorruptHeaderIsRejected)
{
    auto payload = randomPayload(100, 4);
    auto packets = packetize(9, payload, 500);
    auto bad = packets[0];
    bad[5] ^= 0x01; // streamId byte: header CRC mismatch
    StreamReassembler rx(9);
    EXPECT_EQ(rx.accept(bad), PacketVerdict::BadHeader);

    auto truncated = packets[0];
    truncated.resize(kPacketHeaderBytes - 4);
    EXPECT_EQ(rx.accept(truncated), PacketVerdict::BadHeader);

    EXPECT_EQ(rx.accept(packets[0]), PacketVerdict::Accepted);
}

TEST(Packet, WrongStreamRejected)
{
    auto packets = packetize(5, randomPayload(100, 5), 64);
    StreamReassembler rx(6);
    EXPECT_EQ(rx.accept(packets[0]), PacketVerdict::WrongStream);
}

TEST(Packet, MissingSeqsNamesTheGaps)
{
    auto payload = randomPayload(4000, 6);
    auto packets = packetize(3, payload, 1000);
    ASSERT_EQ(packets.size(), 4u);
    StreamReassembler rx(3);
    rx.accept(packets[0]);
    rx.accept(packets[3]);
    EXPECT_EQ(rx.missingSeqs(), (std::vector<uint32_t>{1, 2}));
}

// ---------------------------------------------------------------- channel

TEST(DownlinkChannel, LosslessDeliversFirstContact)
{
    ChannelParams cp;
    cp.payloadBytesPerPacket = 256;
    cp.lossProbability = 0.0;
    cp.bytesPerContact = 1e9;
    DownlinkChannel ch(cp);
    auto payload = randomPayload(10000, 8);
    uint32_t id = ch.submit(payload);
    auto report = ch.runContact();
    ASSERT_EQ(report.delivered.size(), 1u);
    EXPECT_EQ(report.delivered[0].streamId, id);
    EXPECT_EQ(report.delivered[0].payload, payload);
    EXPECT_EQ(ch.stats().streamsCompleted, 1u);
    EXPECT_EQ(ch.stats().packetsRetransmitted, 0u);
}

TEST(DownlinkChannel, LossyRecoversViaRetransmission)
{
    ChannelParams cp;
    cp.payloadBytesPerPacket = 128;
    cp.lossProbability = 0.2; // well above the 10% target
    cp.bytesPerContact = 1e9;
    cp.retentionContacts = 4;
    cp.seed = 99;
    DownlinkChannel ch(cp);
    auto payload = randomPayload(50000, 9);
    ch.submit(payload);

    std::vector<uint8_t> got;
    for (int contact = 0; contact < 4 && got.empty(); ++contact) {
        auto report = ch.runContact();
        if (!report.delivered.empty())
            got = std::move(report.delivered[0].payload);
    }
    ASSERT_FALSE(got.empty()) << "transfer did not complete in 4 contacts";
    EXPECT_EQ(got, payload); // byte-identical after loss + ARQ
    EXPECT_GT(ch.stats().packetsLost, 0u);
    EXPECT_GT(ch.stats().packetsRetransmitted, 0u);
}

TEST(DownlinkChannel, ContactBudgetSpillsToNextContact)
{
    ChannelParams cp;
    cp.payloadBytesPerPacket = 1000;
    cp.lossProbability = 0.0;
    // Budget fits ~5 packets (header included) per contact.
    cp.bytesPerContact = 5 * (1000 + kPacketHeaderBytes) + 10;
    cp.retentionContacts = 10;
    DownlinkChannel ch(cp);
    ch.submit(randomPayload(10000, 10)); // 10 packets
    auto first = ch.runContact();
    EXPECT_TRUE(first.delivered.empty());
    auto second = ch.runContact();
    ASSERT_EQ(second.delivered.size(), 1u);
}

TEST(DownlinkChannel, RetentionDropsStaleTransfers)
{
    ChannelParams cp;
    cp.payloadBytesPerPacket = 100;
    cp.lossProbability = 0.0;
    cp.bytesPerContact = 50.0; // below one packet: nothing ever flows
    cp.retentionContacts = 2;
    DownlinkChannel ch(cp);
    uint32_t id = ch.submit(randomPayload(1000, 11));
    EXPECT_TRUE(ch.runContact().failed.empty());
    auto report = ch.runContact();
    ASSERT_EQ(report.failed.size(), 1u);
    EXPECT_EQ(report.failed[0], id);
    EXPECT_EQ(ch.stats().streamsFailed, 1u);
    EXPECT_EQ(ch.pendingCount(), 0u);
}

// ---------------------------------------------------------------- archive

TEST(Archive, AppendScanReopen)
{
    TempPath path("archive_reopen.epar");
    RecordMeta meta;
    meta.locationId = 3;
    meta.satelliteId = 1;
    meta.band = 2;
    meta.captureDay = 12.5;
    meta.referenceDay = 10.0;
    meta.fullDownload = true;
    auto payload = randomPayload(3000, 12);
    {
        Archive archive(path.str());
        EXPECT_EQ(archive.recordCount(), 0u);
        EXPECT_EQ(archive.shardCount(), Archive::kDefaultShardCount);
        archive.append(meta, payload);
        RecordMeta delta = meta;
        delta.captureDay = 13.5;
        delta.fullDownload = false;
        archive.append(delta, randomPayload(500, 13));
        // The sharded layout is a directory: manifest + shard files.
        EXPECT_TRUE(std::filesystem::is_directory(path.str()));
        EXPECT_TRUE(std::filesystem::exists(path.str() + "/MANIFEST"));
        EXPECT_TRUE(std::filesystem::exists(shardPathFor(archive, 3)));
    }
    Archive reopened(path.str());
    ASSERT_EQ(reopened.recordCount(), 2u);
    EXPECT_FALSE(reopened.scanReport().truncatedTail);
    RecordEntry r0 = reopened.record(0);
    EXPECT_EQ(r0.meta.locationId, 3);
    EXPECT_EQ(r0.meta.satelliteId, 1);
    EXPECT_EQ(r0.meta.band, 2);
    EXPECT_DOUBLE_EQ(r0.meta.captureDay, 12.5);
    EXPECT_DOUBLE_EQ(r0.meta.referenceDay, 10.0);
    EXPECT_TRUE(r0.meta.fullDownload);
    EXPECT_EQ(reopened.loadPayload(0), payload);
    EXPECT_EQ(reopened.chain(3, 2), (std::vector<size_t>{0, 1}));
    EXPECT_TRUE(reopened.chain(3, 0).empty());
}

TEST(Archive, ShardingSpreadsLocationsAndPinsTheMapping)
{
    TempPath path("archive_sharded.epar");
    Archive archive(path.str(), 4);
    EXPECT_EQ(archive.shardCount(), 4);
    for (int loc = 0; loc < 32; ++loc) {
        RecordMeta meta;
        meta.locationId = loc;
        meta.captureDay = 1.0;
        meta.fullDownload = true;
        archive.append(meta, randomPayload(200, 90 + loc));
    }
    // 32 locations across 4 shards: every shard should see records.
    std::set<int> shardsUsed;
    for (int loc = 0; loc < 32; ++loc)
        shardsUsed.insert(archive.shardForLocation(loc));
    EXPECT_EQ(shardsUsed.size(), 4u);

    // Reopening ignores a different shard-count request: the manifest
    // pins the modular mapping the records were distributed by.
    Archive reopened(path.str(), 16);
    EXPECT_EQ(reopened.shardCount(), 4);
    ASSERT_EQ(reopened.recordCount(), 32u);
    for (int loc = 0; loc < 32; ++loc) {
        auto ids = reopened.chain(loc, 0);
        ASSERT_EQ(ids.size(), 1u) << "location " << loc;
        EXPECT_EQ(reopened.record(ids[0]).meta.locationId, loc);
        EXPECT_EQ(reopened.loadPayload(ids[0]),
                  randomPayload(200, 90 + loc));
    }
}

TEST(Archive, TruncatedShardTailIsRecoveredIndependently)
{
    TempPath path("archive_truncated.epar");
    auto [locA, locB] = twoLocationsInDifferentShards(Archive(path.str()));
    auto payloadA = randomPayload(2000, 14);
    auto payloadB = randomPayload(800, 18);
    std::string shardA;
    {
        Archive archive(path.str());
        RecordMeta meta;
        meta.locationId = locA;
        archive.append(meta, payloadA);
        meta.locationId = locB;
        archive.append(meta, payloadB);
        meta.locationId = locA;
        meta.captureDay = 1.0;
        archive.append(meta, randomPayload(2000, 15));
        shardA = shardPathFor(archive, locA);
    }
    // Cut locA's shard mid-way through its second record's payload.
    {
        std::FILE *f = std::fopen(shardA.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        long size = std::ftell(f);
        std::vector<uint8_t> bytes(static_cast<size_t>(size) - 700);
        std::fseek(f, 0, SEEK_SET);
        ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
        std::FILE *w = std::fopen(shardA.c_str(), "wb");
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), w),
                  bytes.size());
        std::fclose(w);
    }
    Archive recovered(path.str());
    EXPECT_TRUE(recovered.scanReport().truncatedTail);
    // locA's shard lost its tail record; locB's shard is untouched.
    ASSERT_EQ(recovered.recordCount(), 2u);
    ASSERT_EQ(recovered.chain(locA, 0).size(), 1u);
    ASSERT_EQ(recovered.chain(locB, 0).size(), 1u);
    EXPECT_EQ(recovered.loadPayload(recovered.chain(locA, 0)[0]),
              payloadA);
    EXPECT_EQ(recovered.loadPayload(recovered.chain(locB, 0)[0]),
              payloadB);

    // The damaged shard stays appendable after recovery.
    RecordMeta meta;
    meta.locationId = locA;
    meta.captureDay = 2.0;
    auto fresh = randomPayload(100, 16);
    recovered.append(meta, fresh);
    Archive again(path.str());
    ASSERT_EQ(again.recordCount(), 3u);
    EXPECT_FALSE(again.scanReport().truncatedTail);
    auto chainA = again.chain(locA, 0);
    ASSERT_EQ(chainA.size(), 2u);
    EXPECT_EQ(again.loadPayload(chainA[1]), fresh);
}

TEST(Archive, CorruptShardPayloadTailDiscarded)
{
    TempPath path("archive_corrupt.epar");
    std::string shard;
    {
        Archive archive(path.str());
        RecordMeta meta;
        archive.append(meta, randomPayload(1000, 17));
        shard = shardPathFor(archive, 0);
    }
    // Flip a byte inside the payload (the record tail) of location
    // 0's shard file.
    {
        std::FILE *f = std::fopen(shard.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, -20, SEEK_END);
        uint8_t b = 0;
        ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
        b ^= 0xFF;
        std::fseek(f, -20, SEEK_END);
        ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
        std::fclose(f);
    }
    Archive recovered(path.str());
    EXPECT_TRUE(recovered.scanReport().truncatedTail);
    EXPECT_EQ(recovered.recordCount(), 0u);
}

TEST(Archive, CrossShardCompact)
{
    TempPath path("archive_xshard_compact.epar");
    Archive archive(path.str(), 4);
    auto [locA, locB] = twoLocationsInDifferentShards(archive);
    auto add = [&](int loc, double day, bool full, uint64_t seed) {
        RecordMeta m;
        m.locationId = loc;
        m.captureDay = day;
        m.fullDownload = full;
        archive.append(m, randomPayload(400, seed));
    };
    // locA: superseded history; locB: everything still live.
    add(locA, 1.0, true, 30);
    add(locB, 1.0, true, 31);
    add(locA, 2.0, false, 32);
    add(locA, 3.0, true, 33); // supersedes locA days 1-2
    add(locB, 2.0, false, 34);
    auto keptA = randomPayload(400, 33);
    auto keptB0 = randomPayload(400, 31);
    auto keptB1 = randomPayload(400, 34);

    uint64_t reclaimed = archive.compact();
    EXPECT_GT(reclaimed, 0u);
    ASSERT_EQ(archive.recordCount(), 3u);
    auto chainA = archive.chain(locA, 0);
    auto chainB = archive.chain(locB, 0);
    ASSERT_EQ(chainA.size(), 1u);
    ASSERT_EQ(chainB.size(), 2u);
    EXPECT_EQ(archive.loadPayload(chainA[0]), keptA);
    EXPECT_EQ(archive.loadPayload(chainB[0]), keptB0);
    EXPECT_EQ(archive.loadPayload(chainB[1]), keptB1);
    EXPECT_DOUBLE_EQ(archive.record(chainA[0]).meta.captureDay, 3.0);

    // The rewritten shards survive a reopen.
    Archive reopened(path.str());
    ASSERT_EQ(reopened.recordCount(), 3u);
    EXPECT_FALSE(reopened.scanReport().truncatedTail);
    EXPECT_EQ(reopened.loadPayload(reopened.chain(locA, 0)[0]), keptA);
}

TEST(Archive, PayloadViewIsStableAcrossGrowth)
{
    // Views borrowed before later appends must stay valid: the mmap
    // grows by retiring (not unmapping) superseded mappings.
    TempPath path("archive_views.epar");
    Archive archive(path.str(), 2);
    auto first = randomPayload(5000, 40);
    RecordMeta meta;
    meta.locationId = 1;
    archive.append(meta, first);
    PayloadView early = archive.payloadView(0);
    ASSERT_EQ(early.size(), first.size());
    for (int i = 0; i < 64; ++i) {
        meta.captureDay = 1.0 + i;
        archive.append(meta, randomPayload(4096, 41 + i));
    }
    // Force a remap by reading the newest record, then recheck the
    // early view's bytes.
    EXPECT_EQ(archive.payloadView(64).size(), 4096u);
    EXPECT_EQ(std::vector<uint8_t>(early.data(),
                                   early.data() + early.size()),
              first);
}

TEST(Archive, CompactDropsSupersededRecords)
{
    TempPath dir("compact_superseded");
    Archive archive(dir.str());
    RecordMeta meta;
    meta.locationId = 1;
    meta.band = 0;
    auto mk = [&](double day, bool full, uint64_t seed) {
        RecordMeta m = meta;
        m.captureDay = day;
        m.fullDownload = full;
        archive.append(m, randomPayload(300, seed));
    };
    mk(1.0, true, 20);
    mk(2.0, false, 21);
    mk(3.0, true, 22); // supersedes records 0 and 1
    mk(4.0, false, 23);
    auto tail = randomPayload(300, 23);

    uint64_t reclaimed = archive.compact();
    EXPECT_GT(reclaimed, 0u);
    ASSERT_EQ(archive.recordCount(), 2u);
    EXPECT_DOUBLE_EQ(archive.record(0).meta.captureDay, 3.0);
    EXPECT_TRUE(archive.record(0).meta.fullDownload);
    EXPECT_DOUBLE_EQ(archive.record(1).meta.captureDay, 4.0);
    EXPECT_EQ(archive.loadPayload(1), tail);
}

TEST(Archive, CompactUsesCaptureDayNotAppendOrder)
{
    // ARQ can land records out of capture order: here an old full
    // download (day 1) completes *after* the day-3 full and the day-4
    // delta. Compaction must keep everything from the latest-by-day
    // full (day 3) and drop only the day-1 record, despite it being
    // the newest append.
    TempPath dir("compact_capture_day");
    Archive archive(dir.str());
    RecordMeta meta;
    meta.locationId = 7;
    auto add = [&](double day, bool full, uint64_t seed) {
        RecordMeta m = meta;
        m.captureDay = day;
        m.fullDownload = full;
        archive.append(m, randomPayload(200, seed));
    };
    add(3.0, true, 70);
    add(4.0, false, 71);
    add(1.0, true, 72); // late-completing stale download
    archive.compact();
    ASSERT_EQ(archive.recordCount(), 2u);
    EXPECT_DOUBLE_EQ(archive.record(0).meta.captureDay, 3.0);
    EXPECT_DOUBLE_EQ(archive.record(1).meta.captureDay, 4.0);
}

// ---------------------------------------------------- storage pressure

namespace {

/** Append one progressive (EPC4) full download for `locationId`. */
void
appendProgressiveCapture(Archive &archive, int locationId, double day,
                         const raster::Plane &img)
{
    codec::EncodeParams ep;
    ep.bitsPerPixel = 4.0;
    RecordMeta meta;
    meta.locationId = locationId;
    meta.captureDay = day;
    meta.fullDownload = true;
    archive.append(meta, codec::encode(img, ep).serialize());
}

/** Expect record `idx`'s payload to parse as a complete stream. */
void
expectRecordParses(const Archive &archive, size_t idx)
{
    std::vector<uint8_t> bytes = archive.loadPayload(idx);
    codec::EncodedImage parsed;
    std::string msg;
    EXPECT_EQ(codec::EncodedImage::tryDeserialize(
                  bytes.data(), bytes.size(), parsed, &msg),
              codec::StreamError::None)
        << "record " << idx << ": " << msg;
}

} // anonymous namespace

TEST(ArchivePressure, FitsTargetAndKeepsEveryRecordDecodable)
{
    TempPath path("archive_pressure_fit.epar");
    Archive archive(path.str());
    for (int loc = 0; loc < 4; ++loc)
        appendProgressiveCapture(archive, loc, 1.0,
                                 testPlane(128, 96, 50 + loc));
    std::vector<std::vector<uint8_t>> original;
    for (size_t i = 0; i < archive.recordCount(); ++i)
        original.push_back(archive.loadPayload(i));
    uint64_t full = archive.fileBytes();
    uint64_t target = full * 6 / 10;

    PressureReport report = archive.applyStoragePressure(target);
    EXPECT_LE(archive.fileBytes(), target);
    EXPECT_FALSE(report.atFloor);
    EXPECT_EQ(report.bytesReclaimed, full - archive.fileBytes());
    EXPECT_EQ(report.recordsTruncated, 4u);
    EXPECT_EQ(report.recordsSkipped, 0u);
    ASSERT_EQ(archive.recordCount(), 4u);
    for (size_t i = 0; i < 4; ++i) {
        std::vector<uint8_t> cut = archive.loadPayload(i);
        ASSERT_LE(cut.size(), original[i].size());
        // Pressure stores the codec's cut of the original: the cut
        // that fits the surviving size is exactly the surviving bytes.
        EXPECT_EQ(cut, codec::truncateStream(original[i], cut.size()));
        expectRecordParses(archive, i);
    }

    // Already under target: a second pass is a no-op.
    PressureReport again = archive.applyStoragePressure(target);
    EXPECT_EQ(again.bytesReclaimed, 0u);
    EXPECT_EQ(again.recordsTruncated, 0u);
}

TEST(ArchivePressure, SkipsRecordsAtTheirFloorAndReportsFloor)
{
    TempPath path("archive_pressure_mixed.epar");
    Archive archive(path.str());
    appendProgressiveCapture(archive, 0, 1.0, testPlane(128, 96, 60));

    // A record already cut to its floor cannot shrink:
    // pressure must leave it byte-identical.
    codec::EncodeParams ep;
    ep.bitsPerPixel = 4.0;
    std::vector<uint8_t> full =
        codec::encode(testPlane(128, 128, 63), ep).serialize();
    std::vector<uint8_t> atFloor =
        codec::truncateStream(full, codec::streamHeaderFloor(full));
    ASSERT_LT(atFloor.size(), full.size());
    RecordMeta meta;
    meta.locationId = 1;
    meta.captureDay = 1.0;
    meta.fullDownload = true;
    archive.append(meta, atFloor);

    // Target far below what the cutter's floors allow: the pass degrades
    // every other record to its floor and reports atFloor.
    PressureReport report = archive.applyStoragePressure(1);
    EXPECT_TRUE(report.atFloor);
    EXPECT_EQ(report.recordsTruncated, 1u);
    EXPECT_EQ(report.recordsSkipped, 1u);
    EXPECT_GT(report.bytesReclaimed, 0u);
    ASSERT_EQ(archive.recordCount(), 2u);
    std::vector<uint8_t> cut = archive.loadPayload(0);
    EXPECT_EQ(cut.size(),
              codec::streamHeaderFloor(cut.data(), cut.size()));
    expectRecordParses(archive, 0);
    EXPECT_EQ(archive.loadPayload(1), atFloor);

    // Everything is at its floor now: a second pass skips every
    // record and rewrites nothing.
    PressureReport again = archive.applyStoragePressure(1);
    EXPECT_TRUE(again.atFloor);
    EXPECT_EQ(again.recordsTruncated, 0u);
    EXPECT_EQ(again.recordsSkipped, 2u);
    EXPECT_EQ(again.bytesReclaimed, 0u);
}

TEST(ArchivePressure, SecondPassCutsAlreadyDegradedRecords)
{
    // A degraded record is a cut stream; a later, tighter pass must
    // cut it again — to the bytes a cut of the original gives — and
    // the quality hint must serve it.
    TempPath path("archive_pressure_twice.epar");
    Archive archive(path.str());
    raster::Plane img = testPlane(128, 128, 64);
    appendProgressiveCapture(archive, 1, 1.0, img);
    const std::vector<uint8_t> original = archive.loadPayload(0);
    const uint64_t full = archive.fileBytes();
    PressureReport first = archive.applyStoragePressure(full * 7 / 10);
    EXPECT_EQ(first.recordsTruncated, 1u);
    std::vector<uint8_t> once = archive.loadPayload(0);
    EXPECT_EQ(once, codec::truncateStream(original, once.size()));

    PressureReport second = archive.applyStoragePressure(full * 4 / 10);
    EXPECT_EQ(second.recordsTruncated, 1u);
    EXPECT_FALSE(second.atFloor);
    EXPECT_LE(archive.fileBytes(), full * 4 / 10);
    std::vector<uint8_t> twice = archive.loadPayload(0);
    ASSERT_LT(twice.size(), once.size());
    EXPECT_EQ(twice, codec::truncateStream(original, twice.size()));
    expectRecordParses(archive, 0);

    TileServer server(archive);
    TileQuery q;
    q.locationId = 1;
    q.day = 1.5;
    q.width = 128;
    q.height = 128;
    q.quality = 50;
    TileResult r = server.serve(q);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(raster::psnr(img, r.pixels), 15.0);
    server.waitForPrefetchIdle();
}

TEST(ArchivePressure, DegradedArchiveReopensAndServes)
{
    TempPath path("archive_pressure_reopen.epar");
    raster::Plane img = testPlane(128, 128, 62);
    {
        Archive archive(path.str());
        appendProgressiveCapture(archive, 1, 1.0, img);
        PressureReport report =
            archive.applyStoragePressure(archive.fileBytes() / 2);
        EXPECT_GT(report.bytesReclaimed, 0u);
    }

    Archive reopened(path.str());
    ASSERT_EQ(reopened.recordCount(), 1u);
    EXPECT_FALSE(reopened.scanReport().truncatedTail);
    expectRecordParses(reopened, 0);

    TileServer server(reopened);
    TileQuery q;
    q.locationId = 1;
    q.day = 1.5;
    q.width = 128;
    q.height = 128;
    TileResult r = server.serve(q);
    ASSERT_TRUE(r.ok());
    // Degraded but recognizable: the top planes carry most of the
    // signal, so even a halved record reconstructs the scene.
    EXPECT_GT(raster::psnr(img, r.pixels), 20.0);
}

// -------------------------------------------------- typed open failures

namespace {

/** Build a small archive with a couple of records on disk. */
void
seedArchive(const std::string &path)
{
    Archive archive(path);
    RecordMeta meta;
    meta.locationId = 3;
    meta.captureDay = 1.0;
    meta.fullDownload = true;
    archive.append(meta, randomPayload(400, 41));
    meta.captureDay = 2.0;
    meta.fullDownload = false;
    archive.append(meta, randomPayload(150, 42));
}

/** Expect Archive::open(path) to refuse with `kind`. */
void
expectOpenFails(const std::string &path, OpenErrorKind kind,
                const std::string &label)
{
    ArchiveOpenError err;
    auto archive = Archive::open(path, ArchiveOptions{}, &err);
    EXPECT_EQ(archive, nullptr) << label;
    EXPECT_EQ(err.kind, kind) << label << ": " << err.detail;
    EXPECT_FALSE(err.detail.empty())
        << label << ": detail must name the offending file";
}

} // anonymous namespace

TEST(ArchiveOpen, ZeroByteShardFailsClosedAsBadShard)
{
    TempPath path("archive_open_zeroshard.epar");
    seedArchive(path.str());
    std::string shard = shardPathFor(Archive(path.str()), 3);
    // Truncate the populated shard to zero bytes. The manifest still
    // references it, so this is damage, not creation debris — the
    // open must refuse rather than silently serve an empty chain.
    std::fclose(std::fopen(shard.c_str(), "wb"));
    expectOpenFails(path.str(), OpenErrorKind::BadShard,
                    "zero-byte shard");
}

TEST(ArchiveOpen, ManifestReferencingMissingShardFailsClosed)
{
    TempPath path("archive_open_missingshard.epar");
    seedArchive(path.str());
    std::string shard = shardPathFor(Archive(path.str()), 3);
    ASSERT_TRUE(std::filesystem::remove(shard));
    expectOpenFails(path.str(), OpenErrorKind::MissingShard,
                    "manifest references deleted shard");
}

TEST(ArchiveOpen, UnwritableDirectoryFailsClosedAsUnwritable)
{
    // Injected write failure: unlike chmod tricks this also works
    // when the suite runs as root (CI containers), where permission
    // bits do not bind.
    TempPath path("archive_open_unwritable.epar");
    failpoint::Schedule s;
    s.trigger = failpoint::Trigger::Always;
    failpoint::arm("archive.io.write.error", s);
    expectOpenFails(path.str(), OpenErrorKind::Unwritable,
                    "injected write failure during creation");
    failpoint::disarmAll();
    // With I/O healthy again the same path opens fine.
    ArchiveOpenError err;
    EXPECT_NE(Archive::open(path.str(), ArchiveOptions{}, &err),
              nullptr);
}

TEST(ArchiveOpen, ForeignTailFailsClosedAndPreservesTheBytes)
{
    TempPath path("archive_open_foreign.epar");
    seedArchive(path.str());
    std::string shard = shardPathFor(Archive(path.str()), 3);
    uintmax_t grown = 0;
    {
        // Another process appended bytes that are provably not ours:
        // our record headers always start with the record magic.
        std::ofstream f(shard, std::ios::binary | std::ios::app);
        f << "NOT-AN-EARTHPLUS-RECORD";
        f.close();
        grown = std::filesystem::file_size(shard);
    }
    expectOpenFails(path.str(), OpenErrorKind::ForeignData,
                    "foreign writer grew a shard");
    // Fail-closed means exactly that: the foreign bytes are evidence,
    // never auto-truncated like one of our own torn tails would be.
    EXPECT_EQ(std::filesystem::file_size(shard), grown);
}

TEST(ArchiveOpen, RegularFilePathFailsClosedAndIsLeftUntouched)
{
    // A file at the archive path — here a lone shard container, the
    // layout a pre-sharding archive used — is not an archive: the open
    // must refuse with a typed error and never touch the bytes.
    TempPath donor("archive_open_file_donor.epar");
    TempPath path("archive_open_file.epar");
    {
        Archive archive(donor.str(), 1);
        RecordMeta meta;
        meta.captureDay = 1.0;
        meta.fullDownload = true;
        archive.append(meta, randomPayload(300, 43));
    }
    std::filesystem::copy_file(donor.str() + "/shard-000.epar",
                               path.str());
    auto slurp = [](const std::string &p) {
        std::ifstream in(p, std::ios::binary);
        return std::vector<char>(std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>());
    };
    std::vector<char> before = slurp(path.str());
    ASSERT_FALSE(before.empty());
    expectOpenFails(path.str(), OpenErrorKind::NotADirectory,
                    "regular file at the archive path");
    EXPECT_TRUE(std::filesystem::is_regular_file(path.str()));
    EXPECT_EQ(slurp(path.str()), before);
}

TEST(ArchiveOpen, EmptyPathFailsClosedAndCreatesNothing)
{
    // An archive is a directory: an empty path must be refused by name,
    // never read as "the working directory" (standard libraries
    // disagree on what create_directories("") does).
    TempPath cwd("archive_open_empty_cwd");
    ASSERT_TRUE(std::filesystem::create_directory(cwd.str()));
    std::filesystem::path saved = std::filesystem::current_path();
    std::filesystem::current_path(cwd.str());
    ArchiveOpenError err;
    auto archive = Archive::open("", ArchiveOptions{}, &err);
    std::filesystem::current_path(saved);
    EXPECT_EQ(archive, nullptr);
    EXPECT_EQ(err.kind, OpenErrorKind::Unwritable) << err.detail;
    EXPECT_NE(err.detail.find("empty"), std::string::npos) << err.detail;
    EXPECT_TRUE(std::filesystem::is_empty(cwd.str()));
}

TEST(ArchiveDeath, PayloadCorruptedAfterOpenIsFatal)
{
    // One byte of a payload rots on disk after open() scanned it clean.
    // Every read path re-verifies the stored CRC and fail-stops rather
    // than serving, compacting or re-blessing the bytes.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    TempPath dir("archive_payload_rot");
    Archive archive(dir.str());
    RecordMeta meta;
    meta.locationId = 4;
    meta.captureDay = 1.0;
    meta.fullDownload = true;
    archive.append(meta, randomPayload(500, 44));
    meta.captureDay = 2.0;
    meta.fullDownload = false;
    size_t rotten = archive.append(meta, randomPayload(300, 45));
    // Map the shard, then flip a payload byte through the file: the
    // shared mapping sees the write.
    ASSERT_EQ(archive.payloadView(0).size(), 500u);
    {
        std::fstream f(shardPathFor(archive, meta.locationId),
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(static_cast<std::streamoff>(
            archive.record(rotten).payloadOffset + 7));
        char byte = 0;
        f.read(&byte, 1);
        f.seekp(static_cast<std::streamoff>(
            archive.record(rotten).payloadOffset + 7));
        byte = static_cast<char>(byte ^ 0x20);
        f.write(&byte, 1);
    }
    // Each child removes its own archive directory before the read
    // (its destructors never run); the live mapping keeps the rotten
    // shard readable.
    auto dieReading = [&](auto read) {
        std::filesystem::remove_all(dir.str());
        read();
    };
    EXPECT_DEATH(dieReading([&] { archive.payloadView(rotten); }),
                 "payload CRC mismatch");
    EXPECT_DEATH(dieReading([&] { archive.loadPayload(rotten); }),
                 "payload CRC mismatch");
    EXPECT_DEATH(dieReading([&] { archive.compact(); }),
                 "payload CRC mismatch");
    EXPECT_DEATH(dieReading([&] { archive.applyStoragePressure(0); }),
                 "payload CRC mismatch");
}

// ----------------------------------------------------- codec::decodeTiles

TEST(DecodeTiles, SubsetMatchesFullDecode)
{
    raster::Plane img = testPlane(192, 128, 30);
    codec::EncodeParams ep;
    ep.bitsPerPixel = 2.0;
    codec::EncodedImage enc = codec::encode(img, ep);
    raster::Plane full = codec::decode(enc);

    raster::TileGrid grid(192, 128, ep.tileSize);
    std::vector<int> tiles{0, 2, grid.tileCount() - 1};
    auto decoded = codec::decodeTiles(enc, tiles);
    ASSERT_EQ(decoded.size(), tiles.size());
    for (size_t i = 0; i < tiles.size(); ++i) {
        raster::TileRect r = grid.rect(tiles[i]);
        raster::Plane expect = full.crop(r.x0, r.y0, r.width, r.height);
        ASSERT_EQ(decoded[i].width(), expect.width());
        ASSERT_EQ(decoded[i].height(), expect.height());
        for (int y = 0; y < expect.height(); ++y)
            for (int x = 0; x < expect.width(); ++x)
                EXPECT_EQ(decoded[i].at(x, y), expect.at(x, y));
    }
}

TEST(DecodeTiles, UncodedTileDecodesToZeros)
{
    raster::Plane img = testPlane(128, 128, 31);
    raster::TileGrid grid(128, 128, 64);
    raster::TileMask roi(grid);
    roi.set(0, true); // only tile 0 coded
    codec::EncodeParams ep;
    ep.roi = &roi;
    codec::EncodedImage enc = codec::encode(img, ep);
    auto decoded = codec::decodeTiles(enc, {1});
    ASSERT_EQ(decoded.size(), 1u);
    for (int y = 0; y < decoded[0].height(); ++y)
        for (int x = 0; x < decoded[0].width(); ++x)
            EXPECT_EQ(decoded[0].at(x, y), 0.0f);
}

// ------------------------------------------------------------ tile server

namespace {

/** Archive with a full download at day 1 and a delta at day 2. */
void
buildChain(Archive &archive, const raster::Plane &base,
           const raster::Plane &changed, int tileSize)
{
    codec::EncodeParams ep;
    ep.bitsPerPixel = 4.0;
    ep.tileSize = tileSize;
    codec::EncodedImage full = codec::encode(base, ep);
    RecordMeta meta;
    meta.locationId = 1;
    meta.band = 0;
    meta.captureDay = 1.0;
    meta.fullDownload = true;
    archive.append(meta, full.serialize());

    // Delta: only tile 0 re-coded from `changed`.
    raster::TileGrid grid(base.width(), base.height(), tileSize);
    raster::TileMask roi(grid);
    roi.set(0, true);
    ep.roi = &roi;
    codec::EncodedImage delta = codec::encode(changed, ep);
    meta.captureDay = 2.0;
    meta.fullDownload = false;
    meta.referenceDay = 1.0;
    archive.append(meta, delta.serialize());
}

} // namespace

TEST(TileServer, ServesFullDownloadRect)
{
    TempPath dir("serve_full_rect");
    Archive archive(dir.str());
    raster::Plane base = testPlane(128, 128, 40);
    raster::Plane changed = testPlane(128, 128, 41);
    buildChain(archive, base, changed, 64);

    TileServer server(archive);
    TileQuery q;
    q.locationId = 1;
    q.day = 1.5; // before the delta
    q.band = 0;
    q.x0 = 0;
    q.y0 = 0;
    q.width = 128;
    q.height = 128;
    TileResult r = server.serve(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.error, ServeError::None);
    EXPECT_GT(r.serveNs, 0u);
    EXPECT_DOUBLE_EQ(r.servedDay, 1.0);
    EXPECT_EQ(r.tilesDecoded, 4);

    codec::EncodeParams ep;
    ep.bitsPerPixel = 4.0;
    raster::Plane expect = codec::decode(codec::encode(base, ep));
    EXPECT_GT(raster::psnr(expect, r.pixels), 90.0);
}

TEST(TileServer, DeltaChainNewestTileWins)
{
    TempPath dir("serve_delta_chain");
    Archive archive(dir.str());
    raster::Plane base = testPlane(128, 128, 42);
    raster::Plane changed = testPlane(128, 128, 43);
    buildChain(archive, base, changed, 64);

    TileServer server(archive);
    TileQuery q;
    q.locationId = 1;
    q.day = 2.5; // after the delta
    q.band = 0;
    q.x0 = 0;
    q.y0 = 0;
    q.width = 128;
    q.height = 128;
    TileResult r = server.serve(q);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.servedDay, 2.0);

    // Tile 0 must come from the delta, the other tiles from the full
    // download.
    codec::EncodeParams ep;
    ep.bitsPerPixel = 4.0;
    raster::Plane fromBase = codec::decode(codec::encode(base, ep));
    raster::Plane tile0 = r.pixels.crop(0, 0, 64, 64);
    raster::Plane tile1 = r.pixels.crop(64, 0, 64, 64);
    EXPECT_LT(raster::psnr(fromBase.crop(0, 0, 64, 64), tile0), 40.0);
    EXPECT_GT(raster::psnr(fromBase.crop(64, 0, 64, 64), tile1), 90.0);
}

TEST(TileServer, QueriesBeforeFirstRecordAreNotFound)
{
    TempPath dir("serve_before_first");
    Archive archive(dir.str());
    raster::Plane base = testPlane(128, 128, 44);
    buildChain(archive, base, base, 64);
    TileServer server(archive);
    TileQuery q;
    q.locationId = 1;
    q.day = 0.5;
    q.width = 10;
    q.height = 10;
    EXPECT_EQ(server.serve(q).error, ServeError::NotFound);
    TileQuery other = q;
    other.day = 1.5;
    other.locationId = 9;
    EXPECT_EQ(server.serve(other).error, ServeError::NotFound);
}

TEST(TileServer, EdgeRectsTruncateAndBadRectsAreBadQuery)
{
    TempPath dir("serve_edge_rects");
    Archive archive(dir.str());
    raster::Plane base = testPlane(128, 128, 48);
    buildChain(archive, base, base, 64);
    TileServer server(archive);

    TileQuery q;
    q.locationId = 1;
    q.day = 1.5;
    q.band = 0;

    // Zero-area rectangles are malformed queries.
    q.x0 = 10;
    q.y0 = 10;
    q.width = 0;
    q.height = 5;
    EXPECT_EQ(server.serve(q).error, ServeError::BadQuery);
    q.width = 5;
    q.height = 0;
    EXPECT_EQ(server.serve(q).error, ServeError::BadQuery);

    // Fully outside the image (either side): no pixels can possibly
    // be served, so the request itself is bad.
    q = TileQuery{};
    q.locationId = 1;
    q.day = 1.5;
    q.x0 = 128;
    q.y0 = 0;
    q.width = 10;
    q.height = 10;
    EXPECT_EQ(server.serve(q).error, ServeError::BadQuery);
    EXPECT_FALSE(server.serve(q).ok());
    q.x0 = -20;
    q.y0 = -20;
    q.width = 10;
    q.height = 10;
    EXPECT_EQ(server.serve(q).error, ServeError::BadQuery);

    // Overhanging rectangles clamp to the image on every edge and
    // report the clipping as Truncated — a partial answer, still ok().
    q.x0 = -16;
    q.y0 = 100;
    q.width = 300;
    q.height = 300;
    TileResult r = server.serve(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.error, ServeError::Truncated);
    EXPECT_EQ(r.pixels.width(), 128);
    EXPECT_EQ(r.pixels.height(), 28);

    // Single-pixel rectangle.
    q = TileQuery{};
    q.locationId = 1;
    q.day = 1.5;
    q.x0 = 127;
    q.y0 = 127;
    q.width = 1;
    q.height = 1;
    r = server.serve(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.error, ServeError::None);
    EXPECT_EQ(r.pixels.width(), 1);
    EXPECT_EQ(r.pixels.height(), 1);

    // Full-image rectangle equals the full decode of the download —
    // exact fit, so no truncation is reported.
    q = TileQuery{};
    q.locationId = 1;
    q.day = 1.5;
    q.width = 128;
    q.height = 128;
    r = server.serve(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.error, ServeError::None);
    codec::EncodeParams ep;
    ep.bitsPerPixel = 4.0;
    raster::Plane expect = codec::decode(codec::encode(base, ep));
    EXPECT_EQ(r.pixels.data(), expect.data());
}

TEST(TileServer, QueryValidationIsCentralized)
{
    // TileQuery::validate + clipTo are the single authority both the
    // in-process pipeline and the network parser consult.
    TileQuery q;
    q.locationId = 1;
    q.day = 1.5;
    q.width = 10;
    q.height = 10;
    EXPECT_EQ(q.validate(), ServeError::None);

    TileQuery bad = q;
    bad.width = -3;
    EXPECT_EQ(bad.validate(), ServeError::BadQuery);
    bad = q;
    bad.locationId = -1;
    EXPECT_EQ(bad.validate(), ServeError::BadQuery);
    bad = q;
    bad.band = -2;
    EXPECT_EQ(bad.validate(), ServeError::BadQuery);
    bad = q;
    bad.day = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(bad.validate(), ServeError::BadQuery);
    bad = q;
    bad.quality = -5;
    EXPECT_EQ(bad.validate(), ServeError::BadQuery);
    bad = q;
    bad.quality = 101;
    EXPECT_EQ(bad.validate(), ServeError::BadQuery);
    bad = q;
    bad.quality = 0;
    EXPECT_EQ(bad.validate(), ServeError::None);
    bad.quality = 100;
    EXPECT_EQ(bad.validate(), ServeError::None);

    // clipTo: exact fit, overhang, and disjoint rectangles.
    q.x0 = 0;
    q.y0 = 0;
    q.width = 128;
    q.height = 128;
    ClippedRect exact = q.clipTo(128, 128);
    EXPECT_FALSE(exact.clipped);
    EXPECT_FALSE(exact.empty());
    EXPECT_EQ(exact.x1, 128);
    q.x0 = -16;
    ClippedRect clipped = q.clipTo(128, 128);
    EXPECT_TRUE(clipped.clipped);
    EXPECT_EQ(clipped.x0, 0);
    EXPECT_EQ(clipped.x1, 112);
    q.x0 = 500;
    EXPECT_TRUE(q.clipTo(128, 128).empty());
}

TEST(TileServer, QualityHintServesReducedFidelityThenRefines)
{
    TempPath dir("serve_quality_hint");
    Archive archive(dir.str());
    raster::Plane img = testPlane(128, 128, 90);
    // Every record is an EPC4 stream, so the quality path can cut
    // both.
    buildChain(archive, img, img, 64);

    TileServer server(archive);
    TileQuery q;
    q.locationId = 1;
    q.day = 1.5;
    q.width = 128;
    q.height = 128;

    TileQuery reduced = q;
    reduced.quality = 10;
    TileResult lo = server.serve(reduced);
    ASSERT_TRUE(lo.ok());
    TileResult hi = server.serve(q);
    ASSERT_TRUE(hi.ok());

    // 10% of the payload must cost fidelity relative to the full
    // stream, but the top planes still reconstruct the scene.
    double loPsnr = raster::psnr(img, lo.pixels);
    double hiPsnr = raster::psnr(img, hi.pixels);
    EXPECT_LT(loPsnr, hiPsnr);
    EXPECT_GT(loPsnr, 15.0);

    // quality == 100 is full fidelity, pixel-identical to no hint.
    TileQuery qFull = q;
    qFull.quality = 100;
    TileResult viaHint = server.serve(qFull);
    ASSERT_TRUE(viaHint.ok());
    for (int y = 0; y < hi.pixels.height(); ++y)
        for (int x = 0; x < hi.pixels.width(); ++x)
            ASSERT_EQ(viaHint.pixels.at(x, y), hi.pixels.at(x, y));

    // A reduced serve schedules a background full-quality refine;
    // once it drains, a full-fidelity query is answered from cache.
    server.waitForPrefetchIdle();
    TileResult warm = server.serve(q);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.tilesDecoded, 0);
    EXPECT_EQ(warm.tilesFromCache, 4);
}

TEST(TileServer, ServeAsyncMatchesServeAndRunsCompletion)
{
    TempPath dir("serve_async");
    Archive archive(dir.str());
    raster::Plane base = testPlane(128, 128, 49);
    buildChain(archive, base, base, 64);
    TileServer server(archive);

    TileQuery q;
    q.locationId = 1;
    q.day = 2.5;
    q.width = 128;
    q.height = 128;
    TileResult sync = server.serve(q);
    ASSERT_TRUE(sync.ok());

    std::atomic<int> completions{0};
    ServeError seenError = ServeError::NotFound;
    std::shared_future<TileResult> fut =
        server.serveAsync(q, [&](const TileResult &r) {
            seenError = r.error;
            completions.fetch_add(1);
        });
    TileResult async = fut.get();
    // The completion runs before the future becomes ready.
    EXPECT_EQ(completions.load(), 1);
    EXPECT_EQ(seenError, ServeError::None);
    ASSERT_TRUE(async.ok());
    EXPECT_EQ(async.pixels.data(), sync.pixels.data());
    EXPECT_DOUBLE_EQ(async.servedDay, sync.servedDay);

    // Async errors surface through the result, same as serve().
    TileQuery bad = q;
    bad.width = 0;
    EXPECT_EQ(server.serveAsync(bad).get().error, ServeError::BadQuery);

    // And the async path fans out: a multi-lane pool completes the
    // future off the calling thread too (same result either way).
    int dflt = util::ThreadPool::defaultThreadCount();
    util::ThreadPool::setGlobalThreads(4);
    {
        TileResult pooled = server.serveAsync(q).get();
        ASSERT_TRUE(pooled.ok());
        EXPECT_EQ(pooled.pixels.data(), sync.pixels.data());
    }
    util::ThreadPool::setGlobalThreads(dflt);
}

TEST(TileServer, StatsViewWindowsTheRegistry)
{
    TempPath dir("serve_stats_window");
    Archive archive(dir.str());
    raster::Plane base = testPlane(128, 128, 50);
    buildChain(archive, base, base, 64);

    TileQuery q;
    q.locationId = 1;
    q.day = 2.5;
    q.width = 128;
    q.height = 128;
    {
        TileServer warmup(archive);
        warmup.serve(q);
        warmup.serve(q);
    }
    // A fresh server's window must exclude the earlier server's
    // queries even though both share the process-wide registry.
    TileServer server(archive);
    EXPECT_EQ(server.statsView().queries, 0u);
    server.serve(q);
    server.serve(q);
    StatsView stats = server.statsView();
    EXPECT_EQ(stats.queries, 2u);
    EXPECT_GT(stats.tilesDecoded, 0u);
    EXPECT_GT(stats.tilesCacheHit, 0u);
    EXPECT_GE(stats.coalesceClaims, stats.tilesDecoded);
    server.resetStats();
    EXPECT_EQ(server.statsView().queries, 0u);
    EXPECT_EQ(server.statsView().tilesDecoded, 0u);
}

TEST(TileServer, CacheHitsOnRepeatAndBatchMatchesSerial)
{
    TempPath dir("serve_cache_batch");
    Archive archive(dir.str());
    raster::Plane base = testPlane(256, 256, 45);
    raster::Plane changed = testPlane(256, 256, 46);
    buildChain(archive, base, changed, 64);

    TileServer server(archive);
    std::vector<TileQuery> batch;
    Rng rng(47);
    for (int i = 0; i < 32; ++i) {
        TileQuery q;
        q.locationId = 1;
        q.day = (i % 2) ? 1.5 : 2.5;
        q.x0 = static_cast<int>(rng.uniformInt(0, 200));
        q.y0 = static_cast<int>(rng.uniformInt(0, 200));
        q.width = 80;
        q.height = 80;
        batch.push_back(q);
    }
    auto results = server.serveBatch(batch);
    ASSERT_EQ(results.size(), batch.size());

    // Second, identical batch: every tile is warm.
    auto warm = server.serveBatch(batch);
    int warmDecodes = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
        warmDecodes += warm[i].tilesDecoded;
        ASSERT_EQ(warm[i].pixels.width(), results[i].pixels.width());
        for (int y = 0; y < warm[i].pixels.height(); ++y)
            for (int x = 0; x < warm[i].pixels.width(); ++x)
                ASSERT_EQ(warm[i].pixels.at(x, y),
                          results[i].pixels.at(x, y));
    }
    EXPECT_EQ(warmDecodes, 0);
    EXPECT_GT(server.statsView().hitRate(), 0.4);
}

TEST(TileServer, TwoQueriesShareOneCachedTile)
{
    // A decoded tile is stored once and shared, not copied, by the
    // cache and the queries that crop from it. Two queries over
    // different parts of one tile both get the decoder's pixels, and
    // the cached tile is unchanged afterwards: the first rect served
    // again from the cache is identical to its first serve.
    TempPath dir("serve_shared_tile");
    Archive archive(dir.str());
    raster::Plane base = testPlane(128, 128, 49);
    buildChain(archive, base, base, 64);
    codec::EncodeParams ep;
    ep.bitsPerPixel = 4.0;
    ep.tileSize = 64;
    raster::Plane expect = codec::decode(codec::encode(base, ep));

    TileServer server(archive);
    TileQuery a;
    a.locationId = 1;
    a.day = 1.5; // the full download only
    a.band = 0;
    a.x0 = 70; // both rects lie inside tile 1 (x 64..127, y 0..63)
    a.y0 = 3;
    a.width = 40;
    a.height = 30;
    TileQuery b = a;
    b.x0 = 90;
    b.y0 = 20;
    b.width = 38;
    b.height = 44;
    TileResult first = server.serve(a);
    TileResult other = server.serve(b);
    TileResult again = server.serve(a);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(other.ok());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(first.tilesDecoded, 1);
    EXPECT_EQ(other.tilesDecoded, 0);
    EXPECT_EQ(other.tilesFromCache, 1);
    EXPECT_EQ(again.tilesFromCache, 1);
    EXPECT_EQ(first.pixels.data(),
              expect.crop(a.x0, a.y0, a.width, a.height).data());
    EXPECT_EQ(other.pixels.data(),
              expect.crop(b.x0, b.y0, b.width, b.height).data());
    EXPECT_EQ(again.pixels.data(), first.pixels.data());
}

TEST(DecodedTileCache, HitsShareTheStoredTileAndCountItsBytes)
{
    DecodedTileCache cache(8 * 20000);
    EXPECT_EQ(cache.get(0, 3, 100), nullptr);
    auto tile =
        std::make_shared<const raster::Plane>(testPlane(64, 64, 50));
    cache.put(0, 3, 100, tile);
    SharedTile hit = cache.get(0, 3, 100);
    EXPECT_EQ(hit, tile);
    EXPECT_EQ(cache.get(0, 3, 100), tile);
    EXPECT_EQ(cache.get(0, 3, 25), nullptr);
    EXPECT_EQ(cache.sizeBytes(), 64u * 64u * sizeof(float));
}

TEST(TileServer, CacheEvictsUnderTightBudget)
{
    TempPath dir("serve_cache_evicts");
    Archive archive(dir.str());
    raster::Plane base = testPlane(256, 256, 48);
    buildChain(archive, base, base, 64);

    // Budget below the 16-tile working set (the cache shards the
    // budget 8 ways; ~20 KB per shard holds one 16 KB tile, and 16
    // tiles over 8 shards guarantee some shard overflows).
    TileServer server(archive, 8 * 20000);
    TileQuery q;
    q.locationId = 1;
    q.day = 2.5;
    q.width = 256;
    q.height = 256;
    server.serve(q);
    server.serve(q);
    EXPECT_GT(server.statsView().cacheEvictions, 0u);
}

TEST(TileServer, ConcurrentIdenticalQueriesDecodeEachTileOnce)
{
    TempPath dir("serve_coalesce");
    Archive archive(dir.str());
    raster::Plane base = testPlane(256, 256, 60);
    buildChain(archive, base, base, 64);

    int dflt = util::ThreadPool::defaultThreadCount();
    util::ThreadPool::setGlobalThreads(4);
    {
        TileServer server(archive);
        // 16 identical full-image queries race on a cold cache: the
        // in-flight map must collapse them onto one decode per tile.
        std::vector<TileQuery> batch(16);
        for (auto &q : batch) {
            q.locationId = 1;
            q.day = 1.5;
            q.width = 256;
            q.height = 256;
        }
        auto results = server.serveBatch(batch);
        for (size_t i = 1; i < results.size(); ++i)
            for (int y = 0; y < results[0].pixels.height(); ++y)
                for (int x = 0; x < results[0].pixels.width(); ++x)
                    ASSERT_EQ(results[i].pixels.at(x, y),
                              results[0].pixels.at(x, y));
        StatsView stats = server.statsView();
        // 4x4 tiles decoded exactly once each, no matter how the 16
        // queries interleaved; every other tile came from the cache
        // or joined an in-flight decode.
        EXPECT_EQ(stats.tilesDecoded, 16u);
        EXPECT_EQ(stats.tilesDecoded + stats.tilesCacheHit +
                      stats.tilesCoalesced,
                  16u * 16u);
    }
    util::ThreadPool::setGlobalThreads(dflt);
}

TEST(TileServer, SequentialDayAccessPrefetchesNextChainStep)
{
    TempPath dir("serve_prefetch");
    Archive archive(dir.str());
    raster::Plane base = testPlane(128, 128, 61);
    codec::EncodeParams ep;
    ep.bitsPerPixel = 4.0;
    ep.tileSize = 64;
    RecordMeta meta;
    meta.locationId = 1;
    meta.band = 0;
    meta.captureDay = 1.0;
    meta.fullDownload = true;
    archive.append(meta, codec::encode(base, ep).serialize());
    // Deltas at days 2 and 3, each re-coding one tile.
    raster::TileGrid grid(128, 128, 64);
    for (int d = 0; d < 2; ++d) {
        raster::TileMask roi(grid);
        roi.set(d, true);
        codec::EncodeParams dp = ep;
        dp.roi = &roi;
        RecordMeta dm = meta;
        dm.captureDay = 2.0 + d;
        dm.fullDownload = false;
        dm.referenceDay = 1.0;
        archive.append(dm,
                       codec::encode(testPlane(128, 128, 62 + d), dp)
                           .serialize());
    }

    TileServer server(archive);
    TileQuery q;
    q.locationId = 1;
    q.band = 0;
    q.width = 128;
    q.height = 128;
    // Two sequential steps establish the forward pattern; the second
    // serve schedules a background warmup of day 3's chain.
    q.day = 1.5;
    server.serve(q);
    q.day = 2.5;
    server.serve(q);
    server.waitForPrefetchIdle();
    StatsView afterPrefetch = server.statsView();
    EXPECT_GE(afterPrefetch.prefetchTasks, 1u);

    // The day-3 query now runs entirely warm.
    q.day = 3.5;
    TileResult r = server.serve(q);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.servedDay, 3.0);
    EXPECT_EQ(r.tilesDecoded, 0);
}

TEST(TileServer, LatencyPercentilesTrackQueries)
{
    TempPath dir("serve_latency");
    Archive archive(dir.str());
    raster::Plane base = testPlane(128, 128, 63);
    buildChain(archive, base, base, 64);
    TileServer server(archive);
    TileQuery q;
    q.locationId = 1;
    q.day = 2.5;
    q.width = 128;
    q.height = 128;
    for (int i = 0; i < 10; ++i)
        server.serve(q);
    StatsView stats = server.statsView();
    EXPECT_EQ(stats.queries, 10u);
    EXPECT_GT(stats.latencyP50Ms, 0.0);
    EXPECT_GE(stats.latencyP99Ms, stats.latencyP50Ms);
    server.resetStats();
    EXPECT_EQ(server.statsView().queries, 0u);
    EXPECT_EQ(server.statsView().latencyP99Ms, 0.0);
}

TEST(TileServer, LatencyPercentilesMatchSortedReference)
{
    telemetry::setMetricsEnabled(true);
    TempPath dir("serve_latency_ref");
    Archive archive(dir.str());
    raster::Plane base = testPlane(128, 128, 64);
    buildChain(archive, base, base, 64);
    TileServer server(archive);
    TileQuery q;
    q.locationId = 1;
    q.day = 2.5;
    q.width = 128;
    q.height = 128;
    // Warm the cache so the measured passes run cache-hot with tight
    // samples.
    server.serve(q);

    // Bracket every serve with the same clock the server uses. Each
    // external sample covers the server's internal one plus a few
    // hundred ns of bracketing overhead, so the sorted-reference
    // percentiles sit just above the server's. One log-bucket's
    // relative error from the histogram, plus a small relative +
    // absolute allowance for that overhead.
    auto tol = [](double ref) {
        return ref * (telemetry::Histogram::kMaxRelativeError + 0.05) +
               1e-3;
    };
    constexpr int kQueries = 400;
    // On a loaded host a preemption can land inside the bracketing
    // gap, inflating an external sample the server never saw; retry a
    // couple of times before declaring a real mismatch.
    for (int attempt = 0; attempt < 3; ++attempt) {
        server.resetStats();
        std::vector<double> sampleMs;
        sampleMs.reserve(kQueries);
        for (int i = 0; i < kQueries; ++i) {
            uint64_t t0 = telemetry::nowNanos();
            server.serve(q);
            sampleMs.push_back(
                static_cast<double>(telemetry::nowNanos() - t0) / 1e6);
        }
        std::sort(sampleMs.begin(), sampleMs.end());
        // Nearest-rank percentiles of the external samples.
        auto rank = [&](double p) {
            size_t r = static_cast<size_t>(
                std::ceil(p * static_cast<double>(kQueries)));
            return sampleMs[std::min(r, sampleMs.size()) - 1];
        };
        double refP50 = rank(0.50);
        double refP99 = rank(0.99);

        StatsView stats = server.statsView();
        ASSERT_EQ(stats.queries, static_cast<uint64_t>(kQueries));
        ASSERT_LE(stats.latencyP50Ms, stats.latencyP99Ms);
        bool matched =
            std::abs(stats.latencyP50Ms - refP50) <= tol(refP50) &&
            std::abs(stats.latencyP99Ms - refP99) <= tol(refP99);
        if (matched)
            return;
        if (attempt == 2) {
            EXPECT_NEAR(stats.latencyP50Ms, refP50, tol(refP50));
            EXPECT_NEAR(stats.latencyP99Ms, refP99, tol(refP99));
        }
    }
}

TEST(TileServer, ServeBatchTraceExportsCompleteEvents)
{
    TempPath dir("serve_batch_trace");
    Archive archive(dir.str());
    raster::Plane base = testPlane(128, 128, 65);
    buildChain(archive, base, base, 64);
    TileServer server(archive);

    telemetry::clearTrace();
    telemetry::setTracing(true);
    std::vector<TileQuery> batch(8);
    for (auto &q : batch) {
        q.locationId = 1;
        q.day = 2.5;
        q.width = 128;
        q.height = 128;
    }
    auto results = server.serveBatch(batch);
    telemetry::setTracing(false);
    for (const auto &r : results)
        EXPECT_TRUE(r.ok());

    TempPath trace("serve_batch_trace.json");
    ASSERT_TRUE(telemetry::writeTrace(trace.str()));
    std::ifstream in(trace.str());
    ASSERT_TRUE(in.good());
    std::string json((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Structural spot-checks; full trace-event JSON validation runs in
    // CI via ci/trace_check.py on the bench artifact.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ground.serve_batch\""), std::string::npos);
    EXPECT_NE(json.find("\"ground.serve\""), std::string::npos);
    EXPECT_EQ(json.back(), '\n');
    telemetry::clearTrace();
}

// ------------------------------------------- concurrent serve + append

TEST(ArchiveConcurrency, ServeBatchWhileAppending)
{
    // The production pattern: download completions append to the
    // archive while serving threads resolve chains, borrow payload
    // views (forcing remaps as shard files grow) and decode. Run
    // file-backed so the mmap path is the one exercised; TSan (see
    // ci/check.sh tsan) must see no races.
    TempPath path("archive_concurrent.epar");
    Archive archive(path.str(), 4);

    codec::EncodeParams ep;
    ep.bitsPerPixel = 2.0;
    ep.tileSize = 64;
    std::vector<uint8_t> fullPayload =
        codec::encode(testPlane(128, 128, 70), ep).serialize();
    std::vector<uint8_t> deltaPayload;
    {
        raster::TileGrid grid(128, 128, 64);
        raster::TileMask roi(grid);
        roi.set(0, true);
        codec::EncodeParams dp = ep;
        dp.roi = &roi;
        deltaPayload =
            codec::encode(testPlane(128, 128, 71), dp).serialize();
    }
    // Seed every location with a full download so queries resolve.
    constexpr int kLocations = 8;
    for (int loc = 0; loc < kLocations; ++loc) {
        RecordMeta meta;
        meta.locationId = loc;
        meta.captureDay = 1.0;
        meta.fullDownload = true;
        archive.append(meta, fullPayload);
    }

    int dflt = util::ThreadPool::defaultThreadCount();
    util::ThreadPool::setGlobalThreads(4);
    {
        TileServer server(archive);
        std::atomic<bool> stop{false};
        std::thread appender([&] {
            for (int i = 0; i < 48; ++i) {
                RecordMeta meta;
                meta.locationId = i % kLocations;
                meta.captureDay = 2.0 + i;
                meta.fullDownload = false;
                meta.referenceDay = 1.0;
                archive.append(meta, deltaPayload);
            }
            stop.store(true);
        });
        std::thread reader([&] {
            // Raw archive readers alongside the server's own.
            while (!stop.load()) {
                size_t n = archive.recordCount();
                if (n > 0) {
                    (void)archive.record(n - 1);
                    (void)archive.payloadView(n - 1).size();
                }
                (void)archive.fileBytes();
            }
        });
        int rounds = 0;
        while (!stop.load() || rounds < 2) {
            std::vector<TileQuery> batch;
            for (int loc = 0; loc < kLocations; ++loc) {
                TileQuery q;
                q.locationId = loc;
                q.day = 1000.0; // whatever has landed so far
                q.width = 128;
                q.height = 128;
                batch.push_back(q);
            }
            for (const TileResult &r : server.serveBatch(batch))
                ASSERT_TRUE(r.ok());
            ++rounds;
        }
        appender.join();
        reader.join();
        ASSERT_EQ(archive.recordCount(),
                  static_cast<size_t>(kLocations + 48));
    }
    util::ThreadPool::setGlobalThreads(dflt);
}

// --------------------------------------------------------- ground station

TEST(GroundStation, GoldenRoundTripWithLossAndRetransmission)
{
    // The acceptance path: encode -> packetize -> >=10% loss ->
    // retransmit -> reassemble -> byte-identical EncodedImage.
    TempPath dir("station_golden");
    GroundSegmentParams gp;
    gp.enabled = true;
    gp.archivePath = dir.str();
    gp.channel.payloadBytesPerPacket = 256;
    gp.channel.lossProbability = 0.15;
    gp.channel.bytesPerContact = 1e9;
    gp.channel.retentionContacts = 4;
    gp.channel.seed = 50;
    gp.contactsPerDay = 4;

    int completions = 0;
    std::vector<uint8_t> submitted;
    GroundStation station(gp, [&](const CaptureDownload &d) {
        ++completions;
        EXPECT_EQ(d.locationId, 5);
    });

    raster::Plane img = testPlane(128, 128, 51);
    codec::EncodeParams ep;
    ep.bitsPerPixel = 2.0;
    codec::EncodedImage enc = codec::encode(img, ep);
    submitted = enc.serialize();

    CaptureDownload download;
    download.locationId = 5;
    download.satelliteId = 0;
    download.captureDay = 3.1;
    download.fullDownload = true;
    download.bandPayloads.push_back(submitted);
    station.submit(std::move(download));

    station.advanceTo(4.5);
    StationStats stats = station.stats();
    ASSERT_EQ(stats.capturesCompleted, 1u);
    EXPECT_EQ(stats.capturesFailed, 0u);
    EXPECT_EQ(stats.capturesByteIdentical, 1u);
    EXPECT_GT(stats.channel.packetsLost, 0u);
    EXPECT_GT(stats.channel.packetsRetransmitted, 0u);
    EXPECT_EQ(completions, 1);

    // The archived payload deserializes into the identical stream.
    ASSERT_EQ(station.archive().recordCount(), 1u);
    EXPECT_EQ(station.archive().loadPayload(0), submitted);
    codec::EncodedImage back =
        codec::EncodedImage::deserialize(station.archive().loadPayload(0));
    EXPECT_EQ(back.serialize(), submitted);
}

TEST(GroundStation, MultiContactMultiCapture)
{
    TempPath dir("station_multi_contact");
    GroundSegmentParams gp;
    gp.enabled = true;
    gp.archivePath = dir.str();
    gp.channel.payloadBytesPerPacket = 512;
    gp.channel.lossProbability = 0.10;
    gp.channel.bytesPerContact = 60e3; // forces multi-contact transfers
    gp.channel.retentionContacts = 6;
    gp.channel.seed = 52;
    gp.contactsPerDay = 7;

    GroundStation station(gp, nullptr);
    std::vector<std::vector<uint8_t>> payloads;
    for (int i = 0; i < 4; ++i) {
        CaptureDownload d;
        d.locationId = 1;
        d.captureDay = 1.0 + 0.1 * i;
        d.fullDownload = (i == 0);
        payloads.push_back(
            randomPayload(20000 + 1000 * static_cast<size_t>(i),
                          60 + static_cast<uint64_t>(i)));
        d.bandPayloads.push_back(payloads.back());
        station.submit(std::move(d));
    }
    station.advanceTo(3.0);
    StationStats stats = station.stats();
    EXPECT_EQ(stats.capturesCompleted, 4u);
    EXPECT_EQ(stats.capturesFailed, 0u);
    EXPECT_EQ(stats.capturesByteIdentical, 4u);
    ASSERT_EQ(station.archive().recordCount(), 4u);
    // Records land in completion order, which ARQ may reorder; match
    // them to their submissions by capture day.
    for (size_t i = 0; i < 4; ++i) {
        const RecordEntry &rec = station.archive().record(i);
        int submitIdx = static_cast<int>(
            std::lround((rec.meta.captureDay - 1.0) / 0.1));
        ASSERT_GE(submitIdx, 0);
        ASSERT_LT(submitIdx, 4);
        EXPECT_EQ(station.archive().loadPayload(i),
                  payloads[static_cast<size_t>(submitIdx)]);
    }
}

// ------------------------------------------------- end-to-end simulation

TEST(GroundSegmentE2E, SimulationDeliversEverythingUnderLoss)
{
    synth::DatasetSpec spec = synth::largeConstellationDataset(128, 128);
    spec.startDay = 120.0;
    spec.endDay = 132.0;

    TempPath dir("ground_segment_e2e");
    core::SimParams params;
    params.maxCaptures = 6;
    params.groundSegment.enabled = true;
    params.groundSegment.archivePath = dir.str();
    params.groundSegment.channel.lossProbability = 0.12;
    params.groundSegment.channel.payloadBytesPerPacket = 1024;
    params.groundSegment.channel.bytesPerContact = 15e9;
    params.groundSegment.channel.retentionContacts = 4;

    core::LocationSimulation sim(spec, 0, core::SystemKind::EarthPlus,
                                 params);
    core::SimSummary summary = sim.run();

    EXPECT_TRUE(summary.groundEnabled);
    EXPECT_GT(summary.processedCount, 0);
    const ground::StationStats &gs = summary.groundStats;
    EXPECT_EQ(gs.capturesFailed, 0u);
    EXPECT_GT(gs.capturesCompleted, 0u);
    // Every completed download must be byte-identical despite >=10%
    // simulated packet loss.
    EXPECT_EQ(gs.capturesByteIdentical, gs.capturesCompleted);
    EXPECT_GT(gs.channel.packetsLost, 0u);
    EXPECT_GT(gs.channel.packetsRetransmitted, 0u);

    // The archive now feeds the tile server: serve a rect from the
    // most recent capture of band 0.
    ASSERT_NE(sim.groundStation(), nullptr);
    ground::Archive &archive = sim.groundStation()->archive();
    ASSERT_GT(archive.recordCount(), 0u);
    TileServer server(archive);
    TileQuery q;
    q.locationId = spec.locations[0].locationId;
    q.day = spec.endDay + 10.0;
    q.band = 0;
    q.width = 128;
    q.height = 128;
    TileResult r = server.serve(q);
    EXPECT_TRUE(r.ok());
    EXPECT_GT(r.tilesDecoded, 0);
}

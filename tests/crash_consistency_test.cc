/**
 * @file
 * Crash-consistency sweep for the sharded archive.
 *
 * The harness simulates a process kill at EVERY injected write
 * boundary of an append / sync() / append workload, reopens the
 * archive from whatever the "dead" process left on disk, and asserts
 * the durability contract from docs/RELIABILITY.md:
 *
 *  - no record acknowledged before the crash is lost (crash = process
 *    kill: the write completed before the acknowledgement, under
 *    every SyncPolicy);
 *  - a torn in-flight tail never poisons the archive — reopen always
 *    succeeds and recovers the valid prefix.
 *
 * Mechanics: `archive.io.crash` armed with NthHit(k) latches the
 * process-wide crash flag at boundary k, persisting at most an
 * `arg`-byte prefix of the crashing write; every later mutation
 * ghost-succeeds. The workload polls archive_io::crashed() after each
 * operation and stops acknowledging, exactly like a process that
 * stopped existing. Boundaries are enumerated with a dry run: an
 * unreachable NthHit schedule counts armed hits without ever firing.
 *
 * EARTHPLUS_CHAOS_SEED varies the payload contents (ci/check.sh chaos
 * sweeps it) without changing the boundary structure.
 *
 * The open-scan fuzz rides along: it damages the shard files of a
 * small archive with seeded byte flips, length-word rewrites,
 * truncations and foreign tails, and asserts that open() either fails
 * with a typed error or returns an archive whose every payload
 * verifies — never a crash, never an invented record.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "ground/archive.hh"
#include "ground/archive_io.hh"
#include "util/bytes.hh"
#include "util/crc32.hh"
#include "util/failpoint.hh"
#include "util/rng.hh"

#include "temp_path.hh"

using namespace earthplus;
using namespace earthplus::ground;
using failpoint::Schedule;
using failpoint::Trigger;
using testutil::TempPath;

namespace {

/** Payload seed base: EARTHPLUS_CHAOS_SEED (default 1). */
uint64_t
chaosSeed()
{
    static uint64_t seed = [] {
        const char *env = std::getenv("EARTHPLUS_CHAOS_SEED");
        return env ? std::strtoull(env, nullptr, 10) : 1ULL;
    }();
    return seed;
}

/** Deterministic pseudo-random payload. */
std::vector<uint8_t>
payloadFor(uint64_t salt, size_t size)
{
    Rng rng(chaosSeed() * 0x9e3779b9ULL + salt);
    std::vector<uint8_t> out(size);
    for (auto &b : out)
        b = static_cast<uint8_t>(rng.uniformInt(0, 255));
    return out;
}

/** One record the workload acknowledged before the crash. */
struct AckedRecord
{
    int locationId = 0;
    double day = 0.0;
    std::vector<uint8_t> payload;
};

/**
 * The append / sync() / append workload. Stops (like a dead process)
 * at the first observed crash; returns only the records acknowledged
 * while still alive.
 */
std::vector<AckedRecord>
runWorkload(const std::string &dir, SyncPolicy policy)
{
    std::vector<AckedRecord> acked;
    ArchiveOptions opt;
    opt.shardCount = 2;
    opt.syncPolicy = policy;
    ArchiveOpenError err;
    auto archive = Archive::open(dir, opt, &err);
    if (!archive || archive_io::crashed())
        return acked; // died during open: nothing was acknowledged
    auto appendOne = [&](int loc, double day, uint64_t salt,
                         size_t size) {
        RecordMeta meta;
        meta.locationId = loc;
        meta.band = 0;
        meta.captureDay = day;
        meta.fullDownload = true;
        std::vector<uint8_t> payload = payloadFor(salt, size);
        archive->append(meta, payload);
        if (archive_io::crashed())
            return false; // in-flight at the kill: not acknowledged
        acked.push_back({loc, day, std::move(payload)});
        return true;
    };
    for (int i = 0; i < 6; ++i)
        if (!appendOne(i, 1.0 + i, 77 + i, 160 + i * 23))
            return acked;
    archive->sync();
    if (archive_io::crashed())
        return acked;
    for (int i = 0; i < 3; ++i)
        if (!appendOne(100 + i, 2.0 + i, 900 + i, 210 + i * 17))
            return acked;
    archive->sync();
    return acked;
}

/**
 * Count the workload's crash boundaries with a dry run: an armed but
 * unreachable NthHit schedule counts hits without firing.
 */
uint64_t
countBoundaries(SyncPolicy policy)
{
    TempPath dir("crash_dryrun_archive");
    Schedule s;
    s.trigger = Trigger::NthHit;
    s.n = 1ULL << 60; // never reached
    failpoint::arm("archive.io.crash", s);
    auto &fp = failpoint::site("archive.io.crash");
    uint64_t before = fp.hitCount();
    runWorkload(dir.str(), policy);
    uint64_t after = fp.hitCount();
    failpoint::disarmAll();
    EXPECT_FALSE(archive_io::crashed());
    return after - before;
}

/**
 * Reopen `dir` after the simulated kill and assert every acknowledged
 * record survived with its exact payload.
 */
void
verifyRecovery(const std::string &dir,
               const std::vector<AckedRecord> &acked,
               const std::string &label)
{
    archive_io::resetCrashLatch();
    failpoint::disarmAll();
    ArchiveOptions opt;
    opt.shardCount = 2;
    ArchiveOpenError err;
    auto archive = Archive::open(dir, opt, &err);
    ASSERT_TRUE(archive)
        << label << ": reopen after crash failed: " << err.detail;
    for (const AckedRecord &rec : acked) {
        bool found = false;
        for (const auto &[idx, meta] :
             archive->chainEntries(rec.locationId, 0)) {
            if (meta.captureDay == rec.day &&
                archive->loadPayload(idx) == rec.payload) {
                found = true;
                break;
            }
        }
        EXPECT_TRUE(found)
            << label << ": acknowledged record loc=" << rec.locationId
            << " day=" << rec.day << " lost after crash";
    }
}

/** Kill the workload at every boundary and verify recovery. */
void
sweepEveryBoundary(SyncPolicy policy, int64_t tornPrefixBytes)
{
    uint64_t boundaries = countBoundaries(policy);
    ASSERT_GT(boundaries, 20u)
        << "suspiciously few crash boundaries: the workload no longer "
           "exercises the injected I/O layer";
    for (uint64_t k = 1; k <= boundaries; ++k) {
        TempPath dir("crash_sweep_archive");
        Schedule s;
        s.trigger = Trigger::NthHit;
        s.n = k;
        s.arg = tornPrefixBytes;
        failpoint::arm("archive.io.crash", s);
        std::vector<AckedRecord> acked = runWorkload(dir.str(), policy);
        EXPECT_TRUE(archive_io::crashed())
            << "boundary " << k << " of " << boundaries
            << " never fired";
        std::string label = "boundary " + std::to_string(k) + "/" +
                            std::to_string(boundaries) + " arg=" +
                            std::to_string(tornPrefixBytes);
        verifyRecovery(dir.str(), acked, label);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/** Disarms failpoints and clears the latch on scope exit. */
struct ChaosGuard
{
    ~ChaosGuard()
    {
        failpoint::disarmAll();
        ground::archive_io::resetCrashLatch();
    }
};

} // anonymous namespace

TEST(CrashConsistency, EveryBoundarySyncAlways)
{
    ChaosGuard guard;
    sweepEveryBoundary(SyncPolicy::Always, 0);
}

TEST(CrashConsistency, EveryBoundarySyncAlwaysTornPrefix)
{
    ChaosGuard guard;
    // Persist a 5-byte prefix of the crashing write: tears record
    // headers and payloads mid-field, the worst-case torn tail.
    sweepEveryBoundary(SyncPolicy::Always, 5);
}

TEST(CrashConsistency, EveryBoundarySyncNone)
{
    ChaosGuard guard;
    // Crash = process kill, not power loss: even with no fsync, a
    // write that completed before the kill is on disk (in the page
    // cache), so acknowledged records must still all survive.
    sweepEveryBoundary(SyncPolicy::None, 0);
}

// ------------------------------------------------------ open-scan fuzz

namespace {

constexpr size_t kShardHeaderBytes = 8;
constexpr size_t kRecordHeaderBytes = 52;
/** Offset of payloadBytes (u64) within a record header. */
constexpr size_t kPayloadBytesField = 40;
constexpr uint32_t kRecordMagic = 0x43525045; // "EPRC"

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Record header offsets of an undamaged shard file. */
std::vector<size_t>
recordHeaders(const std::vector<uint8_t> &file)
{
    std::vector<size_t> out;
    size_t pos = kShardHeaderBytes;
    while (pos + kRecordHeaderBytes <= file.size()) {
        out.push_back(pos);
        pos += kRecordHeaderBytes +
               static_cast<size_t>(util::readPodAt<uint64_t>(
                   file.data(), pos + kPayloadBytesField));
    }
    return out;
}

/** Recompute the header CRC of the record header at `pos`. */
void
resealHeader(std::vector<uint8_t> &file, size_t pos)
{
    uint32_t crc =
        util::crc32(file.data() + pos + 8, kRecordHeaderBytes - 8);
    std::memcpy(file.data() + pos + 4, &crc, sizeof(crc));
}

/** A seeded payloadBytes claim: near misses and absurd sizes. */
uint64_t
lengthClaim(Rng &rng, uint64_t original, uint64_t bytesLeft)
{
    switch (rng.uniformInt(0, 7)) {
    case 0: return 0;
    case 1: return original + 1;
    case 2: return original - 1; // wraps for an empty payload
    case 3: return bytesLeft + 1;
    case 4: return uint64_t{1} << rng.uniformInt(31, 63);
    case 5: return ~uint64_t{0};
    case 6: return static_cast<uint64_t>(rng.uniformInt(0, 1 << 16));
    default: return rng.next();
    }
}

/**
 * Damage one shard file in place, one seeded mutation: byte flips, a
 * rewritten payload length (re-sealed so the header CRC passes, or
 * not), a truncation, or a tail appended by a foreign writer or torn
 * from one of our own headers. Returns a label for failure messages.
 */
std::string
mutateShard(std::vector<uint8_t> &file, Rng &rng)
{
    std::vector<size_t> headers = recordHeaders(file);
    switch (headers.empty() ? 2 : rng.uniformInt(0, 3)) {
    case 0: {
        int flips = static_cast<int>(rng.uniformInt(1, 4));
        for (int i = 0; i < flips; ++i) {
            size_t at = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(file.size()) - 1));
            file[at] ^= static_cast<uint8_t>(rng.uniformInt(1, 255));
        }
        return "byte flips";
    }
    case 1: {
        size_t pos = headers[static_cast<size_t>(rng.uniformInt(
            0, static_cast<int64_t>(headers.size()) - 1))];
        uint64_t original = util::readPodAt<uint64_t>(
            file.data(), pos + kPayloadBytesField);
        uint64_t claim = lengthClaim(
            rng, original, file.size() - pos - kRecordHeaderBytes);
        std::memcpy(file.data() + pos + kPayloadBytesField, &claim,
                    sizeof(claim));
        bool sealed = rng.uniformInt(0, 3) != 0;
        if (sealed)
            resealHeader(file, pos);
        return "length word " + std::to_string(claim) + " at " +
               std::to_string(pos) + (sealed ? " (sealed)" : "");
    }
    case 2: {
        size_t keep = static_cast<size_t>(rng.uniformInt(
            0, static_cast<int64_t>(file.size()) - 1));
        file.resize(keep);
        return "truncated to " + std::to_string(keep);
    }
    default: {
        size_t tail = static_cast<size_t>(rng.uniformInt(1, 80));
        bool ours = rng.uniformInt(0, 1) != 0;
        std::vector<uint8_t> bytes(tail);
        for (uint8_t &b : bytes)
            b = static_cast<uint8_t>(rng.uniformInt(0, 255));
        if (ours)
            std::memcpy(bytes.data(), &kRecordMagic,
                        std::min(bytes.size(), sizeof(kRecordMagic)));
        file.insert(file.end(), bytes.begin(), bytes.end());
        return std::string(ours ? "torn" : "foreign") + " tail of " +
               std::to_string(tail);
    }
    }
}

} // anonymous namespace

TEST(OpenScanFuzz, DamagedShardsFailTypedOrOpenVerified)
{
    ChaosGuard guard;
    constexpr int kMutants = 240;
    ArchiveOptions opt;
    opt.shardCount = 2;
    TempPath pristine("scan_fuzz_pristine");
    std::map<std::pair<int, double>, std::vector<uint8_t>> written;
    {
        Archive archive(pristine.str(), opt);
        for (int i = 0; i < 8; ++i) {
            RecordMeta meta;
            meta.locationId = i % 3;
            meta.captureDay = 1.0 + i;
            meta.fullDownload = i < 3;
            // One empty payload: a zero-length record is legal.
            std::vector<uint8_t> payload =
                payloadFor(500 + i, i == 5 ? 0 : 90 + 37 * i);
            archive.append(meta, payload);
            written[{meta.locationId, meta.captureDay}] = payload;
        }
    }
    std::vector<std::string> shards;
    for (const auto &entry :
         std::filesystem::directory_iterator(pristine.str()))
        if (entry.path().extension() == ".epar")
            shards.push_back(entry.path().filename().string());
    ASSERT_EQ(shards.size(), 2u);

    Rng rng(chaosSeed() * 0x2545f4914f6cdd1dULL + 17);
    int refused = 0, recovered = 0;
    for (int m = 0; m < kMutants; ++m) {
        TempPath dir("scan_fuzz_mutant");
        std::filesystem::copy(pristine.str(), dir.str());
        const std::string &shard = shards[static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(shards.size()) - 1))];
        std::string shardPath = dir.str() + "/" + shard;
        std::vector<uint8_t> bytes = readFile(shardPath);
        std::string label = "mutant " + std::to_string(m) + " (" + shard +
                            ": " + mutateShard(bytes, rng) + ")";
        writeFile(shardPath, bytes);

        ArchiveOpenError err;
        auto archive = Archive::open(dir.str(), opt, &err);
        if (!archive) {
            EXPECT_NE(err.kind, OpenErrorKind::None) << label;
            EXPECT_FALSE(err.detail.empty()) << label;
            ++refused;
            continue;
        }
        recovered += archive->scanReport().truncatedTail ? 1 : 0;
        for (size_t i = 0; i < archive->recordCount(); ++i) {
            // payloadView() re-verifies the payload CRC (fatal on a
            // mismatch); the bytes must be ones the workload wrote.
            RecordEntry entry = archive->record(i);
            PayloadView view = archive->payloadView(i);
            ASSERT_EQ(view.size(), entry.meta.payloadBytes) << label;
            auto it = written.find(
                {entry.meta.locationId, entry.meta.captureDay});
            ASSERT_NE(it, written.end())
                << label << ": open() invented record " << i;
            EXPECT_EQ(view.toVector(), it->second) << label;
        }
    }
    // The seeded mix must reach both outcomes, or the fuzz has
    // stopped exercising the scan.
    EXPECT_GT(refused, 0);
    EXPECT_GT(recovered, 0);
}

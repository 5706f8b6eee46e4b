/**
 * @file
 * Crash-consistency sweep for the sharded archive.
 *
 * The harness simulates a process kill at EVERY injected write
 * boundary of an append / compact / append workload (plus a storage-
 * pressure rewrite), reopens the archive from whatever the "dead"
 * process left on disk, and asserts the durability contract from
 * docs/RELIABILITY.md:
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
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "codec/codec.hh"
#include "ground/archive.hh"
#include "ground/archive_io.hh"
#include "raster/plane.hh"
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
 * The append / compact / append workload. Stops (like a dead process)
 * at the first observed crash; returns only the records acknowledged
 * while still alive. All records are unique full downloads, so
 * compact() preserves every one of them.
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
    archive->compact();
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
        for (size_t idx : archive->chain(rec.locationId, 0)) {
            RecordEntry entry = archive->record(idx);
            if (entry.meta.captureDay == rec.day &&
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

namespace {

/**
 * Cached progressive (EPC4) payloads keyed by salt: the pressure
 * sweep reruns its workload once per boundary, and re-encoding the
 * same image every iteration would dominate the sweep's runtime.
 */
const std::vector<uint8_t> &
progressivePayloadFor(uint64_t salt)
{
    static std::map<uint64_t, std::vector<uint8_t>> cache;
    auto it = cache.find(salt);
    if (it != cache.end())
        return it->second;
    Rng rng(chaosSeed() * 0x51ed2701ULL + salt);
    raster::Plane img(64, 64);
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            img.at(x, y) =
                0.5f +
                0.4f * std::sin(x * 0.11f + static_cast<float>(salt)) *
                    std::cos(y * 0.07f) +
                static_cast<float>(rng.normal(0.0, 0.02));
    img.clampTo(0.0f, 1.0f);
    codec::EncodeParams ep;
    ep.bitsPerPixel = 3.0;
    return cache.emplace(salt, codec::encode(img, ep).serialize())
        .first->second;
}

/**
 * Append four acknowledged progressive records, then degrade to half
 * the archive's size under storage pressure. Stops (like a dead
 * process) at the first observed crash.
 */
std::vector<AckedRecord>
runPressureWorkload(const std::string &dir)
{
    std::vector<AckedRecord> acked;
    ArchiveOptions opt;
    opt.shardCount = 2;
    opt.syncPolicy = SyncPolicy::Always;
    ArchiveOpenError err;
    auto archive = Archive::open(dir, opt, &err);
    if (!archive || archive_io::crashed())
        return acked;
    for (int i = 0; i < 4; ++i) {
        RecordMeta meta;
        meta.locationId = i;
        meta.band = 0;
        meta.captureDay = 1.0 + i;
        meta.fullDownload = true;
        const std::vector<uint8_t> &payload =
            progressivePayloadFor(static_cast<uint64_t>(i));
        archive->append(meta, payload);
        if (archive_io::crashed())
            return acked;
        acked.push_back({i, 1.0 + i, payload});
    }
    archive->applyStoragePressure(archive->fileBytes() / 2);
    return acked;
}

/**
 * The pressure-sweep durability contract: every acknowledged record
 * survives the crash — with its full payload when its shard's rewrite
 * never landed, or as the codec's cut of that payload when it did — a
 * complete stream that parses. Nothing in between (a shard swap is
 * atomic).
 */
void
verifyPressureRecovery(const std::string &dir,
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
        for (size_t idx : archive->chain(rec.locationId, 0)) {
            RecordEntry entry = archive->record(idx);
            if (entry.meta.captureDay != rec.day)
                continue;
            std::vector<uint8_t> bytes = archive->loadPayload(idx);
            ASSERT_LE(bytes.size(), rec.payload.size()) << label;
            EXPECT_EQ(bytes, codec::truncateStream(rec.payload, bytes.size()))
                << label << ": surviving payload is not a cut of the "
                            "acknowledged one";
            codec::EncodedImage parsed;
            std::string msg;
            EXPECT_EQ(codec::EncodedImage::tryDeserialize(
                          bytes.data(), bytes.size(), parsed, &msg),
                      codec::StreamError::None)
                << label << ": " << msg;
            found = true;
            break;
        }
        EXPECT_TRUE(found)
            << label << ": acknowledged record loc=" << rec.locationId
            << " day=" << rec.day << " lost after crash";
    }
}

} // anonymous namespace

TEST(CrashConsistency, EveryBoundaryOfStoragePressure)
{
    ChaosGuard guard;
    uint64_t boundaries = 0;
    {
        TempPath dir("crash_pressure_dry");
        Schedule s;
        s.trigger = Trigger::NthHit;
        s.n = 1ULL << 60; // never reached
        failpoint::arm("archive.io.crash", s);
        auto &fp = failpoint::site("archive.io.crash");
        uint64_t before = fp.hitCount();
        runPressureWorkload(dir.str());
        boundaries = fp.hitCount() - before;
        failpoint::disarmAll();
        EXPECT_FALSE(archive_io::crashed());
    }
    ASSERT_GT(boundaries, 10u)
        << "suspiciously few crash boundaries: storage pressure no "
           "longer exercises the injected I/O layer";
    for (uint64_t k = 1; k <= boundaries; ++k) {
        TempPath dir("crash_pressure_sweep");
        Schedule s;
        s.trigger = Trigger::NthHit;
        s.n = k;
        s.arg = 5; // tear a 5-byte prefix of the crashing write
        failpoint::arm("archive.io.crash", s);
        std::vector<AckedRecord> acked = runPressureWorkload(dir.str());
        EXPECT_TRUE(archive_io::crashed())
            << "pressure boundary " << k << " of " << boundaries
            << " never fired";
        verifyPressureRecovery(dir.str(), acked,
                               "pressure boundary " +
                                   std::to_string(k) + "/" +
                                   std::to_string(boundaries));
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

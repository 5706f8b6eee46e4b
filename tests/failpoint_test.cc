/**
 * @file
 * Unit tests for the deterministic fault-injection layer: failpoint
 * schedules, the EARTHPLUS_FAULTS spec grammar, hit/fire accounting,
 * and the injectable archive I/O primitives built on top of it
 * (short writes, injected errors, EINTR stalls, and the crash latch
 * with its torn-write prefix).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ground/archive_io.hh"
#include "util/failpoint.hh"

#include "temp_path.hh"

using namespace earthplus;
using failpoint::Schedule;
using failpoint::Trigger;
using testutil::TempPath;

namespace {

/** Disarms every failpoint on scope exit so tests can't leak state. */
struct DisarmGuard
{
    ~DisarmGuard()
    {
        failpoint::disarmAll();
        ground::archive_io::resetCrashLatch();
    }
};

/** Read a file fully; empty on open failure. */
std::vector<uint8_t>
slurp(const std::string &path)
{
    std::vector<uint8_t> out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.insert(out.end(), buf, buf + n);
    std::fclose(f);
    return out;
}

Schedule
always()
{
    Schedule s;
    s.trigger = Trigger::Always;
    return s;
}

} // anonymous namespace

TEST(Failpoint, DisarmedNeverFires)
{
    DisarmGuard guard;
    auto &fp = failpoint::site("test.disarmed");
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(fp.fire());
    // The disabled fast path deliberately does not count hits.
    EXPECT_EQ(fp.hitCount(), 0u);
}

TEST(Failpoint, AlwaysFiresEveryHit)
{
    DisarmGuard guard;
    failpoint::arm("test.always", always());
    auto &fp = failpoint::site("test.always");
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(fp.fire());
    EXPECT_EQ(fp.fireCount(), 10u);
    EXPECT_EQ(fp.hitCount(), 10u);
}

TEST(Failpoint, NthHitFiresExactlyOnce)
{
    DisarmGuard guard;
    Schedule s;
    s.trigger = Trigger::NthHit;
    s.n = 4;
    failpoint::arm("test.nth", s);
    auto &fp = failpoint::site("test.nth");
    std::vector<bool> fired;
    for (int i = 0; i < 10; ++i)
        fired.push_back(fp.fire());
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(fired[i], i == 3) << "hit " << i + 1;
    // Re-arming resets the sequence: hit 4 of the new arming fires.
    failpoint::arm("test.nth", s);
    EXPECT_FALSE(fp.fire());
    EXPECT_FALSE(fp.fire());
    EXPECT_FALSE(fp.fire());
    EXPECT_TRUE(fp.fire());
}

TEST(Failpoint, EveryKthFiresPeriodically)
{
    DisarmGuard guard;
    Schedule s;
    s.trigger = Trigger::EveryKth;
    s.n = 3;
    failpoint::arm("test.every", s);
    auto &fp = failpoint::site("test.every");
    int fires = 0;
    for (int i = 1; i <= 12; ++i) {
        bool f = fp.fire();
        EXPECT_EQ(f, i % 3 == 0) << "hit " << i;
        fires += f;
    }
    EXPECT_EQ(fires, 4);
}

TEST(Failpoint, ProbabilityIsDeterministicPerSeed)
{
    DisarmGuard guard;
    Schedule s;
    s.trigger = Trigger::Probability;
    s.probability = 0.3;
    s.seed = 42;
    auto sequence = [&](uint64_t seed) {
        s.seed = seed;
        failpoint::arm("test.prob", s);
        auto &fp = failpoint::site("test.prob");
        std::vector<bool> out;
        for (int i = 0; i < 200; ++i)
            out.push_back(fp.fire());
        return out;
    };
    auto a = sequence(42);
    auto b = sequence(42);
    EXPECT_EQ(a, b) << "same seed must replay the same fire pattern";
    auto c = sequence(43);
    EXPECT_NE(a, c) << "different seeds should diverge";
    // The rate should be in the right ballpark (0.3 +/- a wide net).
    int fires = 0;
    for (bool f : a)
        fires += f;
    EXPECT_GT(fires, 20);
    EXPECT_LT(fires, 120);
}

TEST(Failpoint, DisarmRestoresFastPath)
{
    DisarmGuard guard;
    failpoint::arm("test.disarm", always());
    auto &fp = failpoint::site("test.disarm");
    EXPECT_TRUE(fp.fire());
    failpoint::disarm("test.disarm");
    EXPECT_FALSE(fp.fire());
    EXPECT_EQ(fp.arg(), 0) << "disarmed sites report a zero arg";
}

TEST(Failpoint, ArgRiderIsVisibleWhileArmed)
{
    DisarmGuard guard;
    Schedule s = always();
    s.arg = 17;
    failpoint::arm("test.arg", s);
    EXPECT_EQ(failpoint::site("test.arg").arg(), 17);
}

TEST(Failpoint, SpecGrammarArmsSites)
{
    DisarmGuard guard;
    ASSERT_TRUE(failpoint::armFromSpec(
        "test.spec.a=always;test.spec.b=hit:2,arg:9;"
        "test.spec.c=p:0.5:7;test.spec.d=every:2,seed:11"));
    EXPECT_TRUE(failpoint::site("test.spec.a").fire());
    auto &b = failpoint::site("test.spec.b");
    EXPECT_EQ(b.arg(), 9);
    EXPECT_FALSE(b.fire());
    EXPECT_TRUE(b.fire());
    auto &d = failpoint::site("test.spec.d");
    EXPECT_FALSE(d.fire());
    EXPECT_TRUE(d.fire());
}

TEST(Failpoint, MalformedSpecsAreRejected)
{
    DisarmGuard guard;
    EXPECT_FALSE(failpoint::armFromSpec("noequals"));
    EXPECT_FALSE(failpoint::armFromSpec("=always"));
    EXPECT_FALSE(failpoint::armFromSpec("x=unknown"));
    EXPECT_FALSE(failpoint::armFromSpec("x=hit:0"));
    EXPECT_FALSE(failpoint::armFromSpec("x=p:1.5"));
    EXPECT_FALSE(failpoint::armFromSpec("x=always,bogus:1"));
    EXPECT_FALSE(failpoint::armFromSpec("x=hit:notanumber"));
}

TEST(ArchiveIo, InjectedWriteErrorFailsTheCall)
{
    DisarmGuard guard;
    TempPath file("archive_io_error.bin");
    failpoint::arm("archive.io.write.error", always());
    std::vector<uint8_t> data(64, 0xAB);
    EXPECT_FALSE(ground::archive_io::createFile(file.str(),
                                                data.data(),
                                                data.size()));
    failpoint::disarmAll();
    EXPECT_TRUE(ground::archive_io::createFile(file.str(), data.data(),
                                               data.size()));
    EXPECT_EQ(slurp(file.str()).size(), 64u);
}

TEST(ArchiveIo, InjectedErrorPersistsOnlyTheArgPrefix)
{
    DisarmGuard guard;
    TempPath file("archive_io_error_prefix.bin");
    Schedule s = always();
    s.arg = 10;
    failpoint::arm("archive.io.write.error", s);
    std::vector<uint8_t> data(64, 0xCD);
    EXPECT_FALSE(ground::archive_io::createFile(file.str(),
                                                data.data(),
                                                data.size()));
    // The failed call still tore `arg` bytes into the file — exactly
    // what a real partial write followed by an error leaves behind.
    EXPECT_EQ(slurp(file.str()).size(), 10u);
}

TEST(ArchiveIo, ShortWritesStillCompleteViaTheRetryLoop)
{
    DisarmGuard guard;
    TempPath file("archive_io_short.bin");
    Schedule s = always();
    s.arg = 3; // every fwrite capped to 3 bytes
    failpoint::arm("archive.io.write.short", s);
    std::vector<uint8_t> data(100);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i);
    EXPECT_TRUE(ground::archive_io::createFile(file.str(), data.data(),
                                               data.size()));
    EXPECT_EQ(slurp(file.str()), data)
        << "chunked writes must still persist every byte";
    EXPECT_GT(failpoint::site("archive.io.write.short").fireCount(),
              10u);
}

TEST(ArchiveIo, EintrStallsAreRetriedTransparently)
{
    DisarmGuard guard;
    TempPath file("archive_io_eintr.bin");
    Schedule s;
    s.trigger = Trigger::NthHit;
    s.n = 1; // the first write iteration makes no progress
    failpoint::arm("archive.io.write.eintr", s);
    std::vector<uint8_t> data(50, 0x5A);
    EXPECT_TRUE(ground::archive_io::createFile(file.str(), data.data(),
                                               data.size()));
    EXPECT_EQ(slurp(file.str()).size(), 50u);
    EXPECT_EQ(failpoint::site("archive.io.write.eintr").fireCount(),
              1u);
}

TEST(ArchiveIo, CrashLatchPersistsPrefixThenGhostsEverything)
{
    DisarmGuard guard;
    TempPath file("archive_io_crash.bin");
    TempPath other("archive_io_crash_other.bin");
    Schedule s;
    s.trigger = Trigger::NthHit;
    s.n = 1;
    s.arg = 4;
    failpoint::arm("archive.io.crash", s);

    std::vector<uint8_t> data(32, 0xEE);
    // The crashing write "succeeds" from the caller's view (the
    // process is notionally dead; nobody observes the return) but
    // persists only the 4-byte prefix and latches the crash.
    EXPECT_TRUE(ground::archive_io::createFile(file.str(), data.data(),
                                               data.size()));
    EXPECT_TRUE(ground::archive_io::crashed());
    EXPECT_EQ(slurp(file.str()).size(), 4u);

    // Every later mutation ghost-succeeds without touching disk.
    EXPECT_TRUE(ground::archive_io::createFile(other.str(),
                                               data.data(),
                                               data.size()));
    EXPECT_TRUE(slurp(other.str()).empty());
    EXPECT_TRUE(ground::archive_io::removeFile(file.str()));
    EXPECT_EQ(slurp(file.str()).size(), 4u)
        << "a ghost remove must not delete anything";

    // "Reboot": the latch clears and I/O is real again.
    ground::archive_io::resetCrashLatch();
    failpoint::disarmAll();
    EXPECT_FALSE(ground::archive_io::crashed());
    EXPECT_TRUE(ground::archive_io::createFile(other.str(),
                                               data.data(),
                                               data.size()));
    EXPECT_EQ(slurp(other.str()).size(), 32u);
}

TEST(ArchiveIo, InjectedSyncErrorFailsTheCall)
{
    DisarmGuard guard;
    TempPath file("archive_io_sync.bin");
    std::vector<uint8_t> data(8, 1);
    ASSERT_TRUE(ground::archive_io::createFile(file.str(), data.data(),
                                               data.size()));
    failpoint::arm("archive.io.sync.error", always());
    EXPECT_FALSE(ground::archive_io::syncFile(file.str()));
    failpoint::disarmAll();
    EXPECT_TRUE(ground::archive_io::syncFile(file.str()));
}

/**
 * @file
 * earthplus_chaos_probe — a tiny chaos driver for CI.
 *
 * Exercises the archive's fault paths end to end with the in-process
 * fault-injection layer and dumps the telemetry registry, so
 * ci/trace_check.py can assert the recovery counters actually moved:
 *
 *  - tears a shard tail and reopens (archive.tail_truncated);
 *  - arms archive.io.sync.error under SyncPolicy::Interval, where an
 *    fsync failure is survivable and counted (archive.fsync_failures).
 *
 * Usage: earthplus_chaos_probe --metrics-json PATH
 *
 * Exit status is nonzero if any probed recovery path misbehaves, so
 * the chaos CI job fails even before the counter check runs.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ground/archive.hh"
#include "util/failpoint.hh"
#include "util/rng.hh"
#include "util/telemetry.hh"

using namespace earthplus;
using namespace earthplus::ground;

namespace {

std::vector<uint8_t>
payload(size_t size, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(size);
    for (auto &b : out)
        b = static_cast<uint8_t>(rng.uniformInt(0, 255));
    return out;
}

void
append(Archive &archive, int loc, double day, uint64_t seed)
{
    RecordMeta meta;
    meta.locationId = loc;
    meta.band = 0;
    meta.captureDay = day;
    meta.fullDownload = true;
    archive.append(meta, payload(512, seed));
}

/** Tear-and-reopen: must bump archive.tail_truncated. 0 on success. */
int
probeTornTail(const std::string &dir)
{
    {
        ArchiveOptions opt;
        opt.shardCount = 1;
        Archive archive(dir, opt);
        append(archive, 1, 1.0, 11);
        append(archive, 1, 2.0, 12);
    }
    std::string shard = dir + "/shard-000.epar";
    uintmax_t size = std::filesystem::file_size(shard);
    std::filesystem::resize_file(shard, size - 100);

    ArchiveOpenError err;
    auto recovered = Archive::open(dir, ArchiveOptions{}, &err);
    if (!recovered) {
        std::fprintf(stderr, "torn tail not recovered: %s\n",
                     err.detail.c_str());
        return 1;
    }
    if (recovered->recordCount() != 1) {
        std::fprintf(stderr,
                     "torn-tail recovery kept %zu records, expected 1\n",
                     recovered->recordCount());
        return 1;
    }
    return 0;
}

/** Injected fsync failure under Interval: counted, survived. */
int
probeFsyncFailure(const std::string &dir)
{
    ArchiveOptions opt;
    opt.shardCount = 1;
    opt.syncPolicy = SyncPolicy::Interval;
    opt.syncIntervalBytes = 1; // sync on every append
    ArchiveOpenError err;
    auto archive = Archive::open(dir, opt, &err);
    if (!archive) {
        std::fprintf(stderr, "fsync probe open failed: %s\n",
                     err.detail.c_str());
        return 1;
    }
    failpoint::Schedule s;
    s.trigger = failpoint::Trigger::Always;
    failpoint::arm("archive.io.sync.error", s);
    append(*archive, 2, 3.0, 13);
    failpoint::disarmAll();
    // The record itself must be intact despite the failed sync.
    if (archive->chainEntries(2, 0).size() != 1) {
        std::fprintf(stderr, "append lost under failed fsync\n");
        return 1;
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string metricsPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc)
            metricsPath = argv[++i];
    }

    std::string dir = std::filesystem::temp_directory_path() /
                      "earthplus_chaos_probe.epar";
    std::filesystem::remove_all(dir);

    int rc = probeTornTail(dir);
    if (rc == 0)
        rc = probeFsyncFailure(dir);
    std::filesystem::remove_all(dir);

    if (!metricsPath.empty()) {
        std::ofstream f(metricsPath);
        f << telemetry::snapshotJson();
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         metricsPath.c_str());
            return 1;
        }
    }
    if (rc == 0)
        std::printf("chaos probe ok\n");
    return rc;
}

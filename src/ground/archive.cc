#include "ground/archive.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "codec/codec.hh"
#include "ground/archive_io.hh"
#include "ground/crc32.hh"
#include "util/bytes.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

// Hosts where a MAP_SHARED mapping is documented to see file growth
// within the mapped range (Linux, Darwin). Elsewhere POSIX leaves it
// unspecified, so mappings are sized to the file and remapped on
// growth instead of over-mapped.
#if defined(__linux__) || defined(__APPLE__)
#define EARTHPLUS_ARCHIVE_MMAP_GROWS 1
#else
#define EARTHPLUS_ARCHIVE_MMAP_GROWS 0
#endif

namespace earthplus::ground {

namespace fs = std::filesystem;

namespace {

// "EPAR": shard container magic; "EPRC": record magic; "EPSM": the
// sharded-layout manifest magic.
constexpr uint32_t kFileMagic = 0x52415045;
constexpr uint32_t kRecordMagic = 0x43525045;
constexpr uint32_t kManifestMagic = 0x4D535045;
constexpr uint32_t kVersion = 1;

constexpr size_t kFileHeaderBytes = 8;
/** magic + headerCrc + 4 u32 + 2 f64 + u64 + u32. */
constexpr size_t kRecordHeaderBytes = 52;

constexpr size_t kManifestBytes = 12;
constexpr const char *kManifestName = "MANIFEST";

using util::appendPod;
using util::readPodAt;

/** Record flag bits. */
constexpr uint32_t kFlagFullDownload = 1u << 0;
constexpr uint32_t kFlagHasReference = 1u << 1;

/**
 * Archive metrics, resolved once per process. Registry entries are
 * leaked, so the references outlive every Archive instance.
 */
struct ArchiveMetrics
{
    telemetry::Counter &appends =
        telemetry::counter("archive.appends");
    telemetry::Counter &appendBytes =
        telemetry::counter("archive.append_bytes");
    telemetry::Counter &payloadViews =
        telemetry::counter("archive.payload_views");
    telemetry::Counter &bytesMapped =
        telemetry::counter("archive.bytes_mapped");
    telemetry::Histogram &shardLockWaitNs =
        telemetry::histogram("archive.shard_lock_wait_ns");
    telemetry::Counter &tailTruncated =
        telemetry::counter("archive.tail_truncated");
    telemetry::Counter &fsyncFailures =
        telemetry::counter("archive.fsync_failures");
    telemetry::Counter &syncs = telemetry::counter("archive.syncs");
};

ArchiveMetrics &
archiveMetrics()
{
    static ArchiveMetrics m;
    return m;
}

/** Locks a shard mutex, recording the acquisition wait. */
std::unique_lock<std::mutex>
lockShardTimed(std::mutex &mutex)
{
    if (!telemetry::metricsEnabled())
        return std::unique_lock<std::mutex>(mutex);
    uint64_t t0 = telemetry::nowNanos();
    std::unique_lock<std::mutex> lock(mutex);
    archiveMetrics().shardLockWaitNs.record(telemetry::nowNanos() -
                                            t0);
    return lock;
}

/**
 * Serialize a record header. The header CRC covers every field after
 * itself, so any bit flip in the metadata is caught by the scan.
 */
std::vector<uint8_t>
recordHeaderBytes(const RecordMeta &meta, uint32_t payloadCrc)
{
    std::vector<uint8_t> body;
    body.reserve(kRecordHeaderBytes - 8);
    appendPod(body, static_cast<uint32_t>(meta.locationId));
    appendPod(body, static_cast<uint32_t>(meta.satelliteId));
    appendPod(body, static_cast<uint32_t>(meta.band));
    uint32_t flags = (meta.fullDownload ? kFlagFullDownload : 0u) |
                     (meta.referenceDay >= 0.0 ? kFlagHasReference : 0u);
    appendPod(body, flags);
    appendPod(body, meta.captureDay);
    appendPod(body, meta.referenceDay >= 0.0 ? meta.referenceDay : 0.0);
    appendPod(body, meta.payloadBytes);
    appendPod(body, payloadCrc);

    std::vector<uint8_t> out;
    out.reserve(kRecordHeaderBytes);
    appendPod(out, kRecordMagic);
    appendPod(out, crc32(body.data(), body.size()));
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

/** Parse + validate a record header; false on any inconsistency. */
bool
parseRecordHeader(const uint8_t *buf, RecordEntry &entry)
{
    if (readPodAt<uint32_t>(buf, 0) != kRecordMagic)
        return false;
    uint32_t headerCrc = readPodAt<uint32_t>(buf, 4);
    if (crc32(buf + 8, kRecordHeaderBytes - 8) != headerCrc)
        return false;
    RecordMeta m;
    m.locationId = static_cast<int>(readPodAt<uint32_t>(buf, 8));
    m.satelliteId = static_cast<int>(readPodAt<uint32_t>(buf, 12));
    m.band = static_cast<int>(readPodAt<uint32_t>(buf, 16));
    uint32_t flags = readPodAt<uint32_t>(buf, 20);
    m.fullDownload = (flags & kFlagFullDownload) != 0;
    m.captureDay = readPodAt<double>(buf, 24);
    double refDay = readPodAt<double>(buf, 32);
    m.referenceDay = (flags & kFlagHasReference) ? refDay : -1.0;
    m.payloadBytes = readPodAt<uint64_t>(buf, 40);
    entry.meta = m;
    entry.payloadCrc = readPodAt<uint32_t>(buf, 48);
    return true;
}

/** Create an empty container file holding just the file header. */
bool
writeContainerHeader(const std::string &path)
{
    std::vector<uint8_t> header;
    appendPod(header, kFileMagic);
    appendPod(header, kVersion);
    return archive_io::createFile(path, header.data(), header.size());
}

/** Outcome of scanning one container file. */
struct ScanResult
{
    ScanReport report;
    /** OpenErrorKind::None when the scan is usable. */
    OpenErrorKind error = OpenErrorKind::None;
    /** Human-readable detail for a non-None error. */
    std::string detail;
};

/**
 * Scan one shard container file, recovering the valid record prefix.
 * A *torn-write* tail — one that begins with our own record magic, or
 * is too short to judge — stops the scan and is cut off so the next
 * append starts on a clean tail. A tail that provably was never
 * ours (>= 4 readable bytes with the wrong record magic: a foreign
 * writer grew the shard) is a fail-closed error instead — nothing is
 * truncated, the bytes are preserved for forensics.
 */
ScanResult
scanContainerFile(const std::string &path, std::vector<RecordEntry> &out)
{
    ScanResult result;
    ScanReport &report = result.report;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        // Ghost mode: the file this open "created" was never
        // persisted because the simulated process already died.
        // Present it as the empty container the creator thinks it is.
        if (archive_io::crashed()) {
            report.validBytes = kFileHeaderBytes;
            return result;
        }
        result.error = OpenErrorKind::BadShard;
        result.detail = strfmt("cannot open archive container '%s'",
                               path.c_str());
        return result;
    }

    uint8_t fileHeader[kFileHeaderBytes];
    size_t gotHeader = std::fread(fileHeader, 1, kFileHeaderBytes, f);
    if (gotHeader != kFileHeaderBytes ||
        readPodAt<uint32_t>(fileHeader, 0) != kFileMagic) {
        std::fclose(f);
        // Ghost mode: a container header torn by the simulated crash
        // reads as the empty container its (dead) creator believes it
        // wrote; the discarded ghost instance must not fail the scan.
        if (archive_io::crashed()) {
            report.validBytes = kFileHeaderBytes;
            return result;
        }
        result.error = OpenErrorKind::BadShard;
        result.detail = strfmt(
            "'%s' is not an Earth+ archive container (%s)",
            path.c_str(),
            gotHeader == 0 ? "zero-byte file"
                           : "bad or truncated file header");
        return result;
    }
    uint32_t version = readPodAt<uint32_t>(fileHeader, 4);
    if (version != kVersion) {
        std::fclose(f);
        if (archive_io::crashed()) {
            report.validBytes = kFileHeaderBytes;
            return result;
        }
        result.error = OpenErrorKind::BadShard;
        result.detail =
            strfmt("archive container '%s' has unsupported version %u",
                   path.c_str(), version);
        return result;
    }

    // Scan records until the end of the file or the first corrupt /
    // truncated record; everything before it stays usable.
    uint64_t pos = kFileHeaderBytes;
    bool foreignTail = false;
    for (;;) {
        uint8_t buf[kRecordHeaderBytes];
        if (!archive_io::seekTo(f, pos))
            break;
        size_t got = std::fread(buf, 1, kRecordHeaderBytes, f);
        if (got == 0)
            break; // clean end of file
        if (got < kRecordHeaderBytes) {
            report.truncatedTail = true;
            foreignTail = got >= 4 &&
                readPodAt<uint32_t>(buf, 0) != kRecordMagic;
            break;
        }
        RecordEntry entry;
        if (!parseRecordHeader(buf, entry)) {
            report.truncatedTail = true;
            // Our own torn header always starts with the record magic
            // (headers are written front-first); anything else is a
            // tail some other writer appended.
            foreignTail = readPodAt<uint32_t>(buf, 0) != kRecordMagic;
            break;
        }
        entry.payloadOffset = pos + kRecordHeaderBytes;
        // The payload must fit in the file and match its CRC; a bad
        // tail payload means the append was cut short.
        std::vector<uint8_t> payload(entry.meta.payloadBytes);
        size_t gotPayload = payload.empty()
            ? 0
            : std::fread(payload.data(), 1, payload.size(), f);
        if (gotPayload != payload.size() ||
            crc32(payload.data(), payload.size()) != entry.payloadCrc) {
            report.truncatedTail = true;
            break;
        }
        out.push_back(entry);
        pos += kRecordHeaderBytes + entry.meta.payloadBytes;
    }
    std::fclose(f);

    report.recordCount = out.size();
    report.validBytes = pos;
    if (foreignTail) {
        result.error = OpenErrorKind::ForeignData;
        result.detail = strfmt(
            "archive container '%s': tail at byte %llu was not "
            "written by this archive (foreign writer?) — refusing to "
            "truncate it", path.c_str(),
            static_cast<unsigned long long>(pos));
        return result;
    }
    if (report.truncatedTail) {
        // Drop the garbage so the next append starts on a clean tail.
        // The truncate is one metadata operation: the valid prefix is
        // never rewritten, so a crash here cannot lose it.
        warn("archive container '%s': discarding corrupt tail after "
             "%llu bytes (%zu records recovered)", path.c_str(),
             static_cast<unsigned long long>(pos), out.size());
        archiveMetrics().tailTruncated.add();
        if (!archive_io::truncateFile(path, pos)) {
            result.error = OpenErrorKind::Unwritable;
            result.detail =
                strfmt("cannot truncate archive container '%s'",
                       path.c_str());
            return result;
        }
    }
    return result;
}

/**
 * Append one record's header + payload at `offset` in `path`. Header
 * and payload are separate write boundaries, so injected crashes can
 * land between them. False when either write fails.
 */
bool
appendRecordToFile(const std::string &path, uint64_t offset,
                   const RecordMeta &meta, uint32_t payloadCrc,
                   const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> header = recordHeaderBytes(meta, payloadCrc);
    if (!archive_io::writeAt(path, offset, header.data(),
                             header.size()))
        return false;
    return payload.empty() ||
           archive_io::writeAt(path, offset + header.size(),
                               payload.data(), payload.size());
}

/** Read `size` bytes at `offset` from `path` (stdio fallback path). */
std::vector<uint8_t>
readFileRange(const std::string &path, uint64_t offset, size_t size)
{
    std::vector<uint8_t> bytes(size);
    // A private handle per call keeps concurrent reads free of shared
    // seek state.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open archive shard '%s'", path.c_str());
    bool ok = archive_io::seekTo(f, offset) &&
              (bytes.empty() ||
               std::fread(bytes.data(), 1, bytes.size(), f) ==
                   bytes.size());
    std::fclose(f);
    if (!ok)
        fatal("archive shard '%s': range [%llu, +%zu) unreadable",
              path.c_str(), static_cast<unsigned long long>(offset),
              size);
    return bytes;
}

/** Shard container file name for shard `idx`. */
std::string
shardFileName(const std::string &dir, int idx)
{
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%03d.epar", idx);
    return (fs::path(dir) / name).string();
}

} // anonymous namespace

Archive::Archive(const std::string &path, int shardCount)
    : Archive(path,
              [&] {
                  ArchiveOptions o;
                  o.shardCount = shardCount;
                  return o;
              }(),
              nullptr)
{
}

Archive::Archive(const std::string &path, const ArchiveOptions &options)
    : Archive(path, options, nullptr)
{
}

Archive::Archive(const std::string &path, const ArchiveOptions &options,
                 ArchiveOpenError *error)
    : path_(path), options_(options), err_(error)
{
    int shards = options_.shardCount > 0 ? options_.shardCount
                                         : kDefaultShardCount;
    // The reopen path rejects absurd manifest counts; enforce the
    // same bound at creation time, where the caller can still fix it.
    if (shards > 4096) {
        openFail(OpenErrorKind::BadManifest,
                 strfmt("archive '%s': shard count %d exceeds the "
                        "4096 cap", path_.c_str(), shards));
        err_ = nullptr;
        return;
    }
    openShards(shards);
    err_ = nullptr;
}

std::unique_ptr<Archive>
Archive::open(const std::string &path, const ArchiveOptions &options,
              ArchiveOpenError *error)
{
    ArchiveOpenError scratch;
    ArchiveOpenError *slot = error ? error : &scratch;
    slot->kind = OpenErrorKind::None;
    slot->detail.clear();
    std::unique_ptr<Archive> archive(new Archive(path, options, slot));
    if (slot->kind != OpenErrorKind::None)
        return nullptr;
    return archive;
}

bool
Archive::openFail(OpenErrorKind kind, std::string detail)
{
    if (!err_)
        fatal("%s", detail.c_str());
    // First error wins: later cascading failures of the same open
    // would only obscure the root cause.
    if (err_->kind == OpenErrorKind::None) {
        err_->kind = kind;
        err_->detail = std::move(detail);
    }
    return false;
}

Archive::~Archive()
{
    for (auto &shard : shards_) {
        if (shard->mapAddr)
            ::munmap(const_cast<uint8_t *>(shard->mapAddr),
                     shard->mapLen);
        for (auto &[addr, len] : shard->retired)
            ::munmap(const_cast<uint8_t *>(addr), len);
    }
}

int
Archive::shardForLocation(int locationId) const
{
    // Stable 64-bit mix (first half of the MurmurHash3 fmix64
    // finalizer; docs/ARCHITECTURE.md spells out the exact formula):
    // the mapping is part of the on-disk layout, so it must not
    // depend on std::hash.
    uint64_t h = static_cast<uint32_t>(locationId);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<int>(h % shards_.size());
}

bool
Archive::openShards(int shardCount)
{
    bool manifestExisted = false;
    // Refused up front: what fs::create_directories("") does varies
    // across standard libraries, and one that accepts it would lay the
    // manifest and shards into the working directory.
    if (path_.empty())
        return openFail(OpenErrorKind::Unwritable,
                        "archive path is empty (an archive is a "
                        "directory)");
    std::error_code ec;
    if (fs::exists(path_, ec) && !fs::is_directory(path_, ec))
        return openFail(
            OpenErrorKind::NotADirectory,
            strfmt("archive path '%s' exists but is not a directory "
                   "(archives are directories; the file is left "
                   "untouched)", path_.c_str()));
    fs::create_directories(path_, ec);
    if (ec)
        return openFail(
            OpenErrorKind::Unwritable,
            strfmt("cannot create archive directory '%s': %s",
                   path_.c_str(), ec.message().c_str()));

    // The manifest pins the shard count: the location -> shard
    // mapping is modular, so reopening with a different count
    // would split chains across shards.
    std::string manifestPath =
        (fs::path(path_) / kManifestName).string();
    if (!fs::exists(manifestPath)) {
        // Shard files without their manifest: if any shard can
        // hold records, the shard count (and with it the
        // location -> shard mapping) is unknown and guessing
        // would silently split every chain — refuse. Header-sized
        // or smaller files are debris from a creation that
        // crashed before its manifest landed (shard containers
        // are written first, appends only start once the manifest
        // exists): recordless by construction, so remove them and
        // re-initialize.
        std::vector<std::string> creationDebris;
        for (const auto &entry : fs::directory_iterator(path_)) {
            std::string name = entry.path().filename().string();
            if (name.rfind("shard-", 0) != 0 ||
                name.size() <= 5 ||
                name.substr(name.size() - 5) != ".epar")
                continue;
            std::error_code sec;
            uint64_t size = fs::file_size(entry.path(), sec);
            if (!sec && size <= kFileHeaderBytes) {
                creationDebris.push_back(entry.path().string());
                continue;
            }
            return openFail(
                OpenErrorKind::MissingManifest,
                strfmt("archive '%s' has shard files but no "
                       "manifest — restore '%s' or rebuild "
                       "the archive", path_.c_str(),
                       manifestPath.c_str()));
        }
        for (const std::string &p : creationDebris)
            archive_io::removeFile(p);
    } else {
        // An interrupted compact() can leave staged shard
        // rewrites behind; they were never renamed into place, so
        // they are dead weight, never data.
        for (const auto &entry : fs::directory_iterator(path_)) {
            std::string name = entry.path().filename().string();
            if (name.rfind("shard-", 0) == 0 &&
                name.size() > 9 &&
                name.substr(name.size() - 9) == ".epar.tmp")
                archive_io::removeFile(entry.path().string());
        }
    }
    if (fs::exists(manifestPath)) {
        manifestExisted = true;
        std::vector<uint8_t> m(kManifestBytes);
        std::FILE *mf = std::fopen(manifestPath.c_str(), "rb");
        bool readOk = mf &&
            std::fread(m.data(), 1, m.size(), mf) == m.size();
        if (mf)
            std::fclose(mf);
        if (!readOk)
            return openFail(
                OpenErrorKind::BadManifest,
                strfmt("archive manifest '%s' is unreadable or "
                       "truncated", manifestPath.c_str()));
        if (readPodAt<uint32_t>(m.data(), 0) != kManifestMagic)
            return openFail(
                OpenErrorKind::BadManifest,
                strfmt("'%s' is not an Earth+ archive manifest",
                       manifestPath.c_str()));
        uint32_t version = readPodAt<uint32_t>(m.data(), 4);
        if (version != kVersion)
            return openFail(
                OpenErrorKind::BadManifest,
                strfmt("archive manifest '%s' has unsupported "
                       "version %u", manifestPath.c_str(),
                       version));
        uint32_t count = readPodAt<uint32_t>(m.data(), 8);
        if (count == 0 || count > 4096)
            return openFail(
                OpenErrorKind::BadManifest,
                strfmt("archive manifest '%s' has absurd shard "
                       "count %u", manifestPath.c_str(), count));
        shardCount = static_cast<int>(count);
    } else {
        // Create the shard containers BEFORE the manifest lands:
        // the manifest's existence is the "this archive was fully
        // initialized" marker, so a crash in between leaves either
        // no manifest (re-initialized next open) or a complete
        // layout — never a manifest whose missing shard files
        // would read as data loss.
        for (int s = 0; s < shardCount; ++s) {
            std::string shardPath = shardFileName(path_, s);
            if (!fs::exists(shardPath) &&
                !writeContainerHeader(shardPath))
                return openFail(
                    OpenErrorKind::Unwritable,
                    strfmt("cannot create archive shard '%s'",
                           shardPath.c_str()));
        }
        // Write-temp, fsync, rename, fsync-dir: a crash anywhere
        // in the sequence leaves either no manifest (the archive
        // re-initializes on the next open) or a durable complete
        // one — never a partial manifest that wedges every later
        // open.
        std::vector<uint8_t> m;
        appendPod(m, kManifestMagic);
        appendPod(m, kVersion);
        appendPod(m, static_cast<uint32_t>(shardCount));
        std::string tmpPath = manifestPath + ".tmp";
        if (!archive_io::createFile(tmpPath, m.data(), m.size()))
            return openFail(
                OpenErrorKind::Unwritable,
                strfmt("cannot write archive manifest '%s'",
                       tmpPath.c_str()));
        if (!archive_io::syncFile(tmpPath)) {
            archiveMetrics().fsyncFailures.add();
            warn("archive '%s': cannot fsync manifest before "
                 "rename", path_.c_str());
        }
        if (!archive_io::renameFile(tmpPath, manifestPath))
            return openFail(
                OpenErrorKind::Unwritable,
                strfmt("cannot move archive manifest into place "
                       "at '%s'", manifestPath.c_str()));
        if (!archive_io::syncDir(path_)) {
            archiveMetrics().fsyncFailures.add();
            warn("archive '%s': cannot fsync directory after "
                 "manifest rename", path_.c_str());
        }
    }

    // Scan every shard, then interleave the per-shard records into one
    // global append order. Within a shard, file order is append order;
    // across shards the original interleaving is unrecoverable (and
    // irrelevant — chains never span shards), so shards are replayed
    // in index order, records sorted per (location, band) by the
    // consumers that need day order.
    shards_.clear();
    shards_.reserve(static_cast<size_t>(shardCount));
    scanReport_ = ScanReport{};
    for (int s = 0; s < shardCount; ++s) {
        shards_.push_back(std::make_unique<Shard>());
        Shard &shard = *shards_.back();
        shard.path = shardFileName(path_, s);
        if (!fs::exists(shard.path)) {
            // A manifest referencing a missing shard file is data loss
            // (every chain stored in it is gone). Silently recreating
            // it empty would bless that loss, so the open fails
            // closed; a fresh-creation race (no manifest yet)
            // recreates freely above.
            if (manifestExisted && !archive_io::crashed())
                return openFail(
                    OpenErrorKind::MissingShard,
                    strfmt("archive '%s': manifest references missing "
                           "shard file '%s' — its chains are lost; "
                           "restore the file or rebuild the archive",
                           path_.c_str(), shard.path.c_str()));
            if (!writeContainerHeader(shard.path))
                return openFail(OpenErrorKind::Unwritable,
                                strfmt("cannot create archive shard '%s'",
                                       shard.path.c_str()));
        }
        std::vector<RecordEntry> entries;
        ScanResult scan = scanContainerFile(shard.path, entries);
        if (scan.error != OpenErrorKind::None)
            return openFail(scan.error, std::move(scan.detail));
        shard.scan = scan.report;
        shard.appendOffset = shard.scan.validBytes;
        for (const RecordEntry &entry : entries) {
            uint32_t local = static_cast<uint32_t>(shard.records.size());
            shard.records.push_back(entry);
            size_t gid = globalRecords_.size();
            globalRecords_.push_back({static_cast<uint32_t>(s), local});
            shard.index[{entry.meta.locationId, entry.meta.band}]
                .push_back(gid);
        }
        scanReport_.recordCount += shard.scan.recordCount;
        scanReport_.validBytes += shard.scan.validBytes;
        scanReport_.truncatedTail |= shard.scan.truncatedTail;
    }
    return true;
}

RecordEntry
Archive::writeRecordLocked(Shard &shard, const RecordMeta &meta,
                           const std::vector<uint8_t> &payload,
                           bool persist)
{
    RecordEntry entry;
    entry.meta = meta;
    entry.meta.payloadBytes = payload.size();
    entry.payloadCrc = crc32(payload.data(), payload.size());
    entry.payloadOffset = shard.appendOffset + kRecordHeaderBytes;
    if (persist) {
        if (!appendRecordToFile(shard.path, shard.appendOffset,
                                entry.meta, entry.payloadCrc, payload))
            fatal("append to archive shard '%s' failed (disk full, "
                  "I/O error, or injected fault)", shard.path.c_str());
        shard.bytesSinceSync += kRecordHeaderBytes + payload.size();
        // The durability contract: Always fdatasyncs before the
        // append acknowledges (fsync failure here is fail-stop — a
        // success return would promise durability we do not have);
        // Interval amortizes the fsync over syncIntervalBytes.
        bool wantSync =
            options_.syncPolicy == SyncPolicy::Always ||
            (options_.syncPolicy == SyncPolicy::Interval &&
             shard.bytesSinceSync >= options_.syncIntervalBytes);
        if (wantSync) {
            if (archive_io::syncFile(shard.path)) {
                archiveMetrics().syncs.add();
                shard.bytesSinceSync = 0;
            } else {
                archiveMetrics().fsyncFailures.add();
                if (options_.syncPolicy == SyncPolicy::Always)
                    fatal("archive shard '%s': fdatasync failed under "
                          "SyncPolicy::Always — cannot acknowledge "
                          "the append", shard.path.c_str());
                warn("archive shard '%s': fdatasync failed; retrying "
                     "at the next interval", shard.path.c_str());
                shard.bytesSinceSync = 0;
            }
        }
    }
    shard.appendOffset += kRecordHeaderBytes + payload.size();
    shard.records.push_back(entry);
    return entry;
}

size_t
Archive::indexRecordLocked(size_t shardIdx, uint32_t local,
                           const RecordMeta &meta)
{
    size_t gid = globalRecords_.size();
    globalRecords_.push_back({static_cast<uint32_t>(shardIdx), local});
    shards_[shardIdx]->index[{meta.locationId, meta.band}]
        .push_back(gid);
    return gid;
}

size_t
Archive::append(const RecordMeta &meta, const std::vector<uint8_t> &payload)
{
    telemetry::TraceSpan span("archive.append", "archive");
    size_t shardIdx =
        static_cast<size_t>(shardForLocation(meta.locationId));
    Shard &shard = *shards_[shardIdx];
    archiveMetrics().appends.add();
    archiveMetrics().appendBytes.add(payload.size());

    std::unique_lock<std::mutex> lock = lockShardTimed(shard.mutex);
    uint32_t local = static_cast<uint32_t>(shard.records.size());
    writeRecordLocked(shard, meta, payload);
    // Shard -> global is the one nesting order everywhere (see
    // compact()), so the global table lock cannot deadlock.
    std::unique_lock<std::shared_mutex> g(globalMutex_);
    return indexRecordLocked(shardIdx, local, meta);
}

size_t
Archive::recordCount() const
{
    std::shared_lock<std::shared_mutex> g(globalMutex_);
    return globalRecords_.size();
}

RecordEntry
Archive::record(size_t idx) const
{
    GlobalRef ref;
    {
        std::shared_lock<std::shared_mutex> g(globalMutex_);
        EP_ASSERT(idx < globalRecords_.size(),
                  "record index %zu out of range (%zu records)", idx,
                  globalRecords_.size());
        ref = globalRecords_[idx];
    }
    Shard &shard = *shards_[ref.shard];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.records[ref.local];
}

std::vector<size_t>
Archive::chain(int locationId, int band) const
{
    const Shard &shard =
        *shards_[static_cast<size_t>(shardForLocation(locationId))];
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find({locationId, band});
    return it == shard.index.end() ? std::vector<size_t>() : it->second;
}

std::vector<std::pair<size_t, RecordMeta>>
Archive::chainEntries(int locationId, int band) const
{
    const Shard &shard =
        *shards_[static_cast<size_t>(shardForLocation(locationId))];
    std::vector<std::pair<size_t, RecordMeta>> out;
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find({locationId, band});
    if (it == shard.index.end())
        return out;
    out.reserve(it->second.size());
    // Shard -> global is the nesting order used everywhere.
    std::shared_lock<std::shared_mutex> g(globalMutex_);
    for (size_t gid : it->second) {
        const GlobalRef &ref = globalRecords_[gid];
        out.emplace_back(gid, shard.records[ref.local].meta);
    }
    return out;
}

std::vector<std::pair<int, int>>
Archive::keys() const
{
    std::vector<std::pair<int, int>> out;
    for (const auto &shardPtr : shards_) {
        std::lock_guard<std::mutex> lock(shardPtr->mutex);
        for (const auto &[key, ids] : shardPtr->index)
            out.push_back(key);
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
Archive::ensureMapped(Shard &shard, uint64_t end) const
{
    // Retired mappings are retained for the archive's lifetime (views
    // may aim into them). With doubling growth the list stays tiny;
    // on hosts mapped exactly to file size it grows per remap, so cap
    // it and degrade to the stdio fallback instead of accumulating
    // mappings without bound.
    constexpr size_t kMaxRetiredMappings = 64;
    if (shard.mapAddr && end <= shard.mapValidBytes)
        return true;
    if (shard.retired.size() >= kMaxRetiredMappings)
        return false;
#if EARTHPLUS_ARCHIVE_MMAP_GROWS
    // Growth-visible hosts: the mapping may extend past the file, and
    // pages become readable as appends grow the file underneath it.
    // Before touching pages past the size observed at map time,
    // re-validate that the file has actually grown to cover them.
    if (shard.mapAddr && end <= shard.mapLen) {
        struct stat st;
        if (::stat(shard.path.c_str(), &st) != 0 ||
            static_cast<uint64_t>(st.st_size) < end)
            return false;
        shard.mapValidBytes =
            std::min<uint64_t>(static_cast<uint64_t>(st.st_size),
                               shard.mapLen);
        return true;
    }
#endif
    int fd = ::open(shard.path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    struct stat st;
    if (::fstat(fd, &st) != 0 ||
        static_cast<uint64_t>(st.st_size) < end) {
        ::close(fd);
        return false;
    }
#if EARTHPLUS_ARCHIVE_MMAP_GROWS
    // Map with doubling growth so the retired-mapping list stays
    // O(log growth) per shard instead of one mapping per growth-read
    // cycle. Reads never pass mapValidBytes, so the excess pages are
    // only touched once the file has grown over them (re-validated
    // above).
    size_t len = std::max(static_cast<size_t>(st.st_size),
                          shard.mapLen * 2);
#else
    // Portability fallback: POSIX leaves references to file regions
    // grown after mmap() unspecified, so map exactly the current size
    // and remap on every growth.
    size_t len = static_cast<size_t>(st.st_size);
#endif
    void *addr = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);
    if (addr == MAP_FAILED)
        return false;
    archiveMetrics().bytesMapped.add(len);
    // Outstanding PayloadViews aim into the old mapping, so it is
    // retired (freed at destruction), never unmapped here.
    if (shard.mapAddr)
        shard.retired.emplace_back(shard.mapAddr, shard.mapLen);
    shard.mapAddr = static_cast<const uint8_t *>(addr);
    shard.mapLen = len;
    shard.mapValidBytes = static_cast<uint64_t>(st.st_size);
    return true;
}

PayloadView
Archive::readPayloadLocked(Shard &shard, size_t gid, uint32_t local,
                           std::unique_lock<std::mutex> *release) const
{
    const RecordEntry entry = shard.records[local];
    size_t size = static_cast<size_t>(entry.meta.payloadBytes);
    const uint8_t *mapped =
        ensureMapped(shard, entry.payloadOffset + size)
            ? shard.mapAddr + entry.payloadOffset
            : nullptr;
    // Everything read from here on is immutable by construction: a
    // written record's bytes never change and mappings are retired
    // (not unmapped) while the archive lives.
    if (release)
        release->unlock();
    // Unmappable shard: a private stdio read per call.
    PayloadView view =
        mapped ? PayloadView(mapped, size)
               : PayloadView(readFileRange(shard.path,
                                           entry.payloadOffset, size));
    if (crc32(view.data(), view.size()) != entry.payloadCrc)
        fatal("archive '%s': record %zu payload CRC mismatch",
              path_.c_str(), gid);
    return view;
}

PayloadView
Archive::payloadView(size_t idx) const
{
    telemetry::TraceSpan span("archive.payload_view", "archive");
    archiveMetrics().payloadViews.add();
    GlobalRef ref;
    {
        std::shared_lock<std::shared_mutex> g(globalMutex_);
        EP_ASSERT(idx < globalRecords_.size(),
                  "record index %zu out of range (%zu records)", idx,
                  globalRecords_.size());
        ref = globalRecords_[idx];
    }
    Shard &shard = *shards_[ref.shard];
    std::unique_lock<std::mutex> lock = lockShardTimed(shard.mutex);
    return readPayloadLocked(shard, idx, ref.local, &lock);
}

std::vector<uint8_t>
Archive::loadPayload(size_t idx) const
{
    return payloadView(idx).toVector();
}

uint64_t
Archive::compact()
{
    // Exclusive over the whole archive: shards in index order, then
    // the global table — the same nesting order append() uses.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (auto &shard : shards_)
        locks.emplace_back(shard->mutex);
    std::unique_lock<std::shared_mutex> g(globalMutex_);

    // Keep, per (location, band), everything captured at or after the
    // latest full download. "Latest" is by capture day, not append
    // order: ARQ can complete downloads out of capture order, so a
    // small delta captured after a big full download may sit *before*
    // it in the file.
    size_t n = globalRecords_.size();
    std::vector<uint8_t> keep(n, 1);
    auto entryOf = [&](size_t gid) -> const RecordEntry & {
        const GlobalRef &ref = globalRecords_[gid];
        return shards_[ref.shard]->records[ref.local];
    };
    for (const auto &shardPtr : shards_) {
        for (const auto &[key, gids] : shardPtr->index) {
            double lastFullDay =
                -std::numeric_limits<double>::infinity();
            for (size_t gid : gids)
                if (entryOf(gid).meta.fullDownload)
                    lastFullDay = std::max(lastFullDay,
                                           entryOf(gid).meta.captureDay);
            for (size_t gid : gids)
                if (entryOf(gid).meta.captureDay < lastFullDay)
                    keep[gid] = 0;
        }
    }

    uint64_t before = 0;
    for (const auto &shardPtr : shards_)
        before += shardPtr->appendOffset;

    // Pull surviving payloads into memory before the rewrite,
    // verifying each against its stored CRC: a compact must never
    // re-bless rotten bytes with a freshly computed checksum.
    std::vector<std::pair<RecordMeta, std::vector<uint8_t>>> survivors;
    for (size_t gid = 0; gid < n; ++gid) {
        if (!keep[gid])
            continue;
        const GlobalRef &ref = globalRecords_[gid];
        Shard &shard = *shards_[ref.shard];
        survivors.emplace_back(
            shard.records[ref.local].meta,
            readPayloadLocked(shard, gid, ref.local, nullptr).toVector());
    }

    uint64_t after = rewriteAllShardsLocked(survivors);
    return before - after;
}

uint64_t
Archive::rewriteAllShardsLocked(
    std::vector<std::pair<RecordMeta, std::vector<uint8_t>>> &records)
{
    // Crash-safe rewrite: each shard's records go to a staged
    // 'shard-NNN.epar.tmp' first, the staged file is fsynced, then
    // renamed over the live shard. A crash anywhere leaves every
    // shard either fully old or fully new — both valid containers —
    // and per-shard independence makes a partially renamed rewrite a
    // legal archive state (chains never span shards). Stray .tmp
    // files are swept on the next open.
    std::vector<uint64_t> tmpOffsets(shards_.size(),
                                     kFileHeaderBytes);
    auto tmpPathOf = [](const Shard &shard) {
        return shard.path + ".tmp";
    };
    for (auto &shardPtr : shards_) {
        if (!writeContainerHeader(tmpPathOf(*shardPtr)))
            fatal("rewrite: cannot stage rewrite of shard '%s'",
                  shardPtr->path.c_str());
    }
    for (const auto &[meta, payload] : records) {
        size_t shardIdx =
            static_cast<size_t>(shardForLocation(meta.locationId));
        Shard &shard = *shards_[shardIdx];
        RecordMeta stamped = meta;
        stamped.payloadBytes = payload.size();
        if (!appendRecordToFile(tmpPathOf(shard),
                                tmpOffsets[shardIdx], stamped,
                                crc32(payload.data(),
                                      payload.size()),
                                payload))
            fatal("rewrite: staged write to '%s' failed",
                  tmpPathOf(shard).c_str());
        tmpOffsets[shardIdx] +=
            kRecordHeaderBytes + payload.size();
    }
    for (auto &shardPtr : shards_) {
        std::string tmp = tmpPathOf(*shardPtr);
        if (!archive_io::syncFile(tmp)) {
            archiveMetrics().fsyncFailures.add();
            warn("rewrite: cannot fsync staged shard '%s'",
                 tmp.c_str());
        } else {
            archiveMetrics().syncs.add();
        }
        if (!archive_io::renameFile(tmp, shardPtr->path))
            fatal("rewrite: cannot move staged shard over '%s' — "
                  "already-renamed shards are rewritten, the rest "
                  "are untouched (every shard is still a valid "
                  "container)", shardPtr->path.c_str());
    }
    archive_io::syncDir(path_);

    // Reset every shard. Rewriting a file invalidates the *content*
    // behind its mapping, so the mapping is retired along with any
    // outstanding views (the API contract: a full rewrite invalidates
    // views and indices).
    globalRecords_.clear();
    uint64_t after = 0;
    for (auto &shardPtr : shards_) {
        Shard &shard = *shardPtr;
        shard.records.clear();
        shard.index.clear();
        shard.appendOffset = kFileHeaderBytes;
        shard.bytesSinceSync = 0;
        if (shard.mapAddr) {
            shard.retired.emplace_back(shard.mapAddr, shard.mapLen);
            shard.mapAddr = nullptr;
            shard.mapLen = 0;
            shard.mapValidBytes = 0;
        }
    }

    // Replay the records in their original global order to rebuild
    // the in-memory records and indexes. The bytes are already on
    // disk (staged + renamed above), so the replay is memory-only.
    for (auto &[meta, payload] : records) {
        size_t shardIdx =
            static_cast<size_t>(shardForLocation(meta.locationId));
        Shard &shard = *shards_[shardIdx];
        uint32_t local = static_cast<uint32_t>(shard.records.size());
        writeRecordLocked(shard, meta, payload, false);
        indexRecordLocked(shardIdx, local, meta);
    }

    scanReport_.recordCount = globalRecords_.size();
    scanReport_.validBytes = 0;
    // Every shard was just rewritten cleanly, so an open-time
    // truncated tail no longer describes the on-disk state.
    scanReport_.truncatedTail = false;
    for (const auto &shardPtr : shards_) {
        after += shardPtr->appendOffset;
        scanReport_.validBytes += shardPtr->appendOffset;
    }
    return after;
}

PressureReport
Archive::applyStoragePressure(uint64_t targetBytes)
{
    // Exclusive over the whole archive, same nesting as compact():
    // shards in index order, then the global table.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (auto &shard : shards_)
        locks.emplace_back(shard->mutex);
    std::unique_lock<std::shared_mutex> g(globalMutex_);

    PressureReport report;
    uint64_t before = 0;
    for (const auto &shardPtr : shards_)
        before += shardPtr->appendOffset;
    if (before <= targetBytes)
        return report;

    // Pull every payload into memory, verifying each against its
    // stored CRC — like compact(), the rewrite must never re-bless
    // rotten bytes with a fresh checksum.
    size_t n = globalRecords_.size();
    std::vector<std::pair<RecordMeta, std::vector<uint8_t>>> records;
    records.reserve(n);
    for (size_t gid = 0; gid < n; ++gid) {
        const GlobalRef &ref = globalRecords_[gid];
        Shard &shard = *shards_[ref.shard];
        records.emplace_back(
            shard.records[ref.local].meta,
            readPayloadLocked(shard, gid, ref.local, nullptr).toVector());
    }

    // Each payload can shrink from its current size down to its
    // cutter's floor; spread the byte deficit proportionally over those
    // cuttable spans so quality degrades evenly across the archive
    // instead of zeroing out whole records.
    uint64_t need = before - targetBytes;
    uint64_t cuttable = 0;
    std::vector<size_t> floors(records.size(), 0);
    for (size_t i = 0; i < records.size(); ++i) {
        const std::vector<uint8_t> &payload = records[i].second;
        floors[i] = codec::streamHeaderFloor(payload);
        cuttable += payload.size() - floors[i];
    }
    if (cuttable == 0) {
        // Nothing can shrink: every record is already at its floor.
        // Report the floor instead of evicting.
        report.recordsSkipped = records.size();
        report.atFloor = true;
        return report;
    }

    double keepFrac = need >= cuttable
        ? 0.0
        : 1.0 - static_cast<double>(need) /
                    static_cast<double>(cuttable);
    for (size_t i = 0; i < records.size(); ++i) {
        std::vector<uint8_t> &payload = records[i].second;
        size_t span = payload.size() - floors[i];
        size_t budget =
            floors[i] +
            static_cast<size_t>(static_cast<double>(span) * keepFrac);
        std::vector<uint8_t> cut =
            codec::truncateStream(payload, budget);
        if (cut.size() < payload.size()) {
            ++report.recordsTruncated;
            payload = std::move(cut);
            records[i].first.payloadBytes = payload.size();
        } else {
            ++report.recordsSkipped;
        }
    }

    uint64_t after = rewriteAllShardsLocked(records);
    report.bytesReclaimed = before - after;
    // Proportional budgets always land at or below their targets, so
    // one pass reaches targetBytes whenever the floors allow it.
    report.atFloor = after > targetBytes;
    return report;
}

bool
Archive::sync()
{
    bool ok = true;
    for (auto &shardPtr : shards_) {
        std::lock_guard<std::mutex> lock(shardPtr->mutex);
        if (archive_io::syncFile(shardPtr->path)) {
            archiveMetrics().syncs.add();
            shardPtr->bytesSinceSync = 0;
        } else {
            archiveMetrics().fsyncFailures.add();
            ok = false;
        }
    }
    return ok;
}

uint64_t
Archive::fileBytes() const
{
    uint64_t total = 0;
    for (const auto &shardPtr : shards_) {
        std::lock_guard<std::mutex> lock(shardPtr->mutex);
        total += shardPtr->appendOffset;
    }
    return total;
}

} // namespace earthplus::ground

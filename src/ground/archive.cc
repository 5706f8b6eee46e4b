#include "ground/archive.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "ground/archive_io.hh"
#include "util/bytes.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace earthplus::ground {

namespace fs = std::filesystem;

/** A read-only mapping of a file's first size() bytes. */
class Mapping
{
  public:
    /** Adopt the mapping of `size` bytes at `addr`. */
    Mapping(const void *addr, size_t size)
        : data_(static_cast<const uint8_t *>(addr)), size_(size)
    {
    }

    ~Mapping() { ::munmap(const_cast<uint8_t *>(data_), size_); }

    Mapping(const Mapping &) = delete;
    Mapping &operator=(const Mapping &) = delete;

    /** First mapped byte. */
    const uint8_t *data() const { return data_; }

    /** Mapped bytes: the file's size when it was mapped. */
    size_t size() const { return size_; }

  private:
    const uint8_t *data_;
    size_t size_;
};

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
    appendPod(out, util::crc32(body.data(), body.size()));
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
    if (util::crc32(buf + 8, kRecordHeaderBytes - 8) != headerCrc)
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

/** A whole-file mapping attempt. */
struct FileMapping
{
    /** False when the file could not be opened or stat'ed. */
    bool opened = false;
    /** The file's size as fstat saw it. */
    uint64_t fileBytes = 0;
    /** Mapping of all fileBytes, or null (file too short, or mmap
     *  failed). */
    std::shared_ptr<const Mapping> mapping;
};

/**
 * Map exactly the bytes the file at `path` holds — portable POSIX,
 * which leaves pages a file grows into after mmap() unspecified — when
 * it holds at least `minBytes` (> 0). A file that is too short is not
 * mapped.
 */
FileMapping
mapWholeFile(const std::string &path, uint64_t minBytes)
{
    FileMapping out;
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return out;
    struct stat st;
    out.opened = ::fstat(fd, &st) == 0;
    if (out.opened) {
        out.fileBytes = static_cast<uint64_t>(st.st_size);
        if (out.fileBytes >= minBytes) {
            size_t len = static_cast<size_t>(out.fileBytes);
            void *addr =
                ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
            if (addr != MAP_FAILED) {
                out.mapping = std::make_shared<const Mapping>(addr, len);
                archiveMetrics().bytesMapped.add(len);
            }
        }
    }
    ::close(fd);
    return out;
}

/** Outcome of scanning one container file. */
struct ScanResult
{
    ScanReport report;
    /** OpenErrorKind::None when the scan is usable. */
    OpenErrorKind error = OpenErrorKind::None;
    /** Human-readable detail for a non-None error. */
    std::string detail;
    /** The scan's mapping of the whole file when the scan truncated
     *  nothing (the shard's first read mapping), else null. */
    std::shared_ptr<const Mapping> mapping;
};

/**
 * Scan one shard container file through a mapping of it, recovering
 * the valid record prefix. A *torn-write* tail — one that begins with
 * our own record magic, is too short to judge, or claims a payload
 * the file does not hold — stops the scan and is cut off so the next
 * append starts on a clean tail. A tail that provably was never ours
 * (>= 4 bytes with the wrong record magic: a foreign writer grew the
 * shard) is a fail-closed error instead — nothing is truncated, the
 * bytes are preserved for forensics.
 */
ScanResult
scanContainerFile(const std::string &path, std::vector<RecordEntry> &out)
{
    ScanResult result;
    ScanReport &report = result.report;
    // Ghost mode: a container this open "created" was never persisted
    // (or was torn) because the simulated process already died; it
    // reads as the empty container its (dead) creator believes it
    // wrote, so the discarded ghost instance does not fail the scan.
    auto reject = [&](std::string detail) {
        if (archive_io::crashed()) {
            report.validBytes = kFileHeaderBytes;
        } else {
            result.error = OpenErrorKind::BadShard;
            result.detail = std::move(detail);
        }
        return std::move(result);
    };
    FileMapping file = mapWholeFile(path, kFileHeaderBytes);
    if (!file.opened)
        return reject(strfmt("cannot open archive container '%s'",
                             path.c_str()));
    if (file.fileBytes < kFileHeaderBytes)
        return reject(strfmt(
            "'%s' is not an Earth+ archive container (%s)", path.c_str(),
            file.fileBytes == 0 ? "zero-byte file"
                                : "bad or truncated file header"));
    if (!file.mapping)
        return reject(strfmt("cannot map archive container '%s'",
                             path.c_str()));
    const uint8_t *bytes = file.mapping->data();
    const uint64_t size = file.fileBytes;
    if (readPodAt<uint32_t>(bytes, 0) != kFileMagic)
        return reject(strfmt(
            "'%s' is not an Earth+ archive container (bad or truncated "
            "file header)", path.c_str()));
    uint32_t version = readPodAt<uint32_t>(bytes, 4);
    if (version != kVersion)
        return reject(strfmt(
            "archive container '%s' has unsupported version %u",
            path.c_str(), version));

    // Walk records until the end of the file or the first corrupt /
    // truncated record; everything before it stays usable.
    uint64_t pos = kFileHeaderBytes;
    bool foreignTail = false;
    while (pos < size) {
        const uint8_t *at = bytes + pos;
        uint64_t left = size - pos;
        // Our own torn header always starts with the record magic
        // (headers are written front-first); anything else with room
        // for a magic is a tail some other writer appended.
        RecordEntry entry;
        if (left < kRecordHeaderBytes || !parseRecordHeader(at, entry)) {
            report.truncatedTail = true;
            foreignTail =
                left >= 4 && readPodAt<uint32_t>(at, 0) != kRecordMagic;
            break;
        }
        entry.payloadOffset = pos + kRecordHeaderBytes;
        // The payload must fit in the file and match its CRC; a bad
        // tail payload means the append was cut short. The length is
        // checked against the bytes left before anything is read, so
        // a header claiming more than the file holds is a torn tail.
        if (entry.meta.payloadBytes > left - kRecordHeaderBytes ||
            util::crc32(bytes + entry.payloadOffset,
                  static_cast<size_t>(entry.meta.payloadBytes)) !=
                entry.payloadCrc) {
            report.truncatedTail = true;
            break;
        }
        out.push_back(entry);
        pos += kRecordHeaderBytes + entry.meta.payloadBytes;
    }

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
    if (!report.truncatedTail) {
        result.mapping = std::move(file.mapping);
        return result;
    }
    // Drop the garbage so the next append starts on a clean tail. The
    // mapping goes first: it must not outlive the bytes it covers.
    // The truncate is one metadata operation: the valid prefix is
    // never rewritten, so a crash here cannot lose it.
    file.mapping.reset();
    warn("archive container '%s': discarding corrupt tail after "
         "%llu bytes (%zu records recovered)", path.c_str(),
         static_cast<unsigned long long>(pos), out.size());
    archiveMetrics().tailTruncated.add();
    if (!archive_io::truncateFile(path, pos)) {
        result.error = OpenErrorKind::Unwritable;
        result.detail = strfmt("cannot truncate archive container '%s'",
                               path.c_str());
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
        shard.appendOffset = scan.report.validBytes;
        shard.mapping = std::move(scan.mapping);
        for (const RecordEntry &entry : entries) {
            uint32_t local = static_cast<uint32_t>(shard.records.size());
            shard.records.push_back(entry);
            indexRecordLocked(static_cast<size_t>(s), local, entry.meta);
        }
        scanReport_.recordCount += scan.report.recordCount;
        scanReport_.validBytes += scan.report.validBytes;
        scanReport_.truncatedTail |= scan.report.truncatedTail;
    }
    return true;
}

void
Archive::writeRecordLocked(Shard &shard, const RecordMeta &meta,
                           const std::vector<uint8_t> &payload)
{
    RecordEntry entry;
    entry.meta = meta;
    entry.meta.payloadBytes = payload.size();
    entry.payloadCrc = util::crc32(payload.data(), payload.size());
    entry.payloadOffset = shard.appendOffset + kRecordHeaderBytes;
    if (!appendRecordToFile(shard.path, shard.appendOffset, entry.meta,
                            entry.payloadCrc, payload))
        fatal("append to archive shard '%s' failed (disk full, I/O "
              "error, or injected fault)", shard.path.c_str());
    shard.bytesSinceSync += kRecordHeaderBytes + payload.size();
    // The durability contract: Always fdatasyncs before the append
    // acknowledges (fsync failure here is fail-stop — a success return
    // would promise durability we do not have); Interval amortizes the
    // fsync over syncIntervalBytes.
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
                      "SyncPolicy::Always — cannot acknowledge the "
                      "append", shard.path.c_str());
            warn("archive shard '%s': fdatasync failed; retrying at "
                 "the next interval", shard.path.c_str());
            shard.bytesSinceSync = 0;
        }
    }
    shard.appendOffset += kRecordHeaderBytes + payload.size();
    shard.records.push_back(entry);
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
    // Shard -> global is the one nesting order everywhere, so the
    // global table lock cannot deadlock.
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

std::shared_ptr<const Mapping>
Archive::mappingCovering(Shard &shard, uint64_t end) const
{
    if (shard.mapping && end <= shard.mapping->size())
        return shard.mapping;
    // The file grew past the mapping: map it afresh. Views into the
    // old mapping keep it alive; the shard lets go of it here.
    FileMapping file = mapWholeFile(shard.path, end);
    if (!file.mapping)
        fatal("archive shard '%s': cannot map bytes [0, %llu) — the "
              "file holds %llu bytes, or mmap failed",
              shard.path.c_str(), static_cast<unsigned long long>(end),
              static_cast<unsigned long long>(file.fileBytes));
    shard.mapping = std::move(file.mapping);
    return shard.mapping;
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
    const RecordEntry entry = shard.records[ref.local];
    size_t size = static_cast<size_t>(entry.meta.payloadBytes);
    std::shared_ptr<const Mapping> mapping =
        mappingCovering(shard, entry.payloadOffset + size);
    // The view co-owns the mapping and a written record's bytes never
    // change, so the CRC pass runs without the shard lock: a cold read
    // of a hot shard does not stall that shard's appends.
    lock.unlock();
    const uint8_t *data = mapping->data() + entry.payloadOffset;
    PayloadView view(std::move(mapping), data, size);
    if (util::crc32(view.data(), view.size()) != entry.payloadCrc)
        fatal("archive '%s': record %zu payload CRC mismatch",
              path_.c_str(), idx);
    return view;
}

std::vector<uint8_t>
Archive::loadPayload(size_t idx) const
{
    return payloadView(idx).toVector();
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

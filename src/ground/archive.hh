/**
 * @file
 * Persistent sharded archive of downloaded encoded imagery.
 *
 * The ground segment must keep every downloaded `EncodedImage` delta
 * and its reference lineage — reconstruction of a (location, day,
 * band) needs the latest full download plus all deltas since, and a
 * production archive survives process restarts. At constellation
 * scale the archive is written by many download completions and read
 * by many serving threads at once, so it is **sharded by location**:
 * the path names a *directory* holding a manifest plus one
 * append-only container file per shard, and a record lands in the
 * shard selected by hashing its locationId. Every (location, band)
 * chain therefore lives wholly inside one shard — the per-shard
 * indexes are shared-nothing and each shard has its own mutex, so
 * appends and reads on different shards never contend.
 *
 *   directory := MANIFEST shard-NNN.epar*
 *   manifest  := magic "EPSM" | version u32 | shardCount u32
 *   shard     := fileHeader record*            (one container file)
 *   header    := magic "EPAR" | version u32
 *   record    := recordMagic "EPRC" | headerCrc u32 | locationId u32 |
 *                satelliteId u32 | band u32 | flags u32 |
 *                captureDay f64 | referenceDay f64 | payloadBytes u64 |
 *                payloadCrc u32 | payload bytes
 *
 * A path that names an existing regular file is refused at open
 * (OpenErrorKind::NotADirectory) and the file is left untouched; an
 * empty path is refused too (OpenErrorKind::Unwritable).
 *
 * A payload is opaque to the archive: it stores, CRC-checks and hands
 * back bytes, and never parses them (the tile server decodes them).
 *
 * Appends go to the end of a shard file; open() scans every shard to
 * rebuild the in-memory indexes and is corruption-tolerant per shard:
 * a truncated or corrupt tail record stops that shard's scan, the
 * valid prefix stays usable, and the next append to the shard rewinds
 * over the garbage. Every byte read after the manifest comes through
 * a read-only `mmap` of the shard file, sized to the bytes the file
 * held when it was mapped: the open scan walks that mapping, and a
 * read past its end maps the grown file afresh. payloadView() hands
 * out pointers into the mapping, so serving resolves delta chains
 * zero-copy and the codec parses the stream straight out of the page
 * cache. A view co-owns the mapping it points into, which is unmapped
 * when the shard and the last view into it let go — so a view stays
 * valid across appends and after the archive is destroyed.
 *
 * The archive only ever appends: reconstruction reads a day's latest
 * full download plus every delta after it, so no record is rewritten,
 * pruned or renumbered, and a record's index is fixed for the life of
 * the Archive object.
 */

#ifndef EARTHPLUS_GROUND_ARCHIVE_HH
#define EARTHPLUS_GROUND_ARCHIVE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

namespace earthplus::ground {

/**
 * When appended records are forced to stable storage
 * (docs/RELIABILITY.md spells out the full durability contract).
 */
enum class SyncPolicy
{
    /**
     * Never fdatasync on the append path: an acknowledged append can
     * be lost to power failure (never to a process crash — the write
     * itself completes before the acknowledgement). Manifest
     * creation still gets the full temp-fsync-rename-dirsync
     * choreography under every policy.
     */
    None,
    /** fdatasync a shard once every syncIntervalBytes appended to it:
     *  bounded loss window, amortized fsync cost. */
    Interval,
    /** fdatasync the shard before every append acknowledges: an
     *  acknowledged append survives power failure. Append-path fsync
     *  failure is fail-stop (fatal) — the acknowledgement would
     *  otherwise be a lie. */
    Always,
};

/** Construction-time knobs for Archive (beyond the path). */
struct ArchiveOptions
{
    /** Shards to create (<= 0 picks Archive::kDefaultShardCount); an
     *  existing directory's manifest wins. */
    int shardCount = 0;
    /** Append durability (see SyncPolicy). */
    SyncPolicy syncPolicy = SyncPolicy::None;
    /** SyncPolicy::Interval: fdatasync a shard after this many bytes
     *  appended to it since its last sync. */
    uint64_t syncIntervalBytes = 4u << 20;
};

/** Why Archive::open() refused an archive (fail-closed open). */
enum class OpenErrorKind
{
    None,           ///< No error.
    BadShard,       ///< Shard unreadable / zero-byte / bad header.
    MissingShard,   ///< Manifest references a shard file that is gone.
    MissingManifest,///< Shard files present but no manifest.
    BadManifest,    ///< Manifest unreadable or malformed.
    Unwritable,     ///< Cannot create the directory/manifest/shards.
    ForeignData,    ///< A shard grew a tail we provably never wrote.
    NotADirectory,  ///< The path exists but is not a directory.
};

/**
 * Typed outcome of a failed Archive::open(): the kind plus a
 * human-readable detail naming the offending path.
 */
struct ArchiveOpenError
{
    OpenErrorKind kind = OpenErrorKind::None; ///< What went wrong.
    std::string detail; ///< Message naming the offending file.
};

/** Metadata of one archived download (one band of one capture). */
struct RecordMeta
{
    int locationId = 0;  ///< Captured location (selects the shard).
    int satelliteId = 0; ///< Capturing satellite.
    int band = 0;        ///< Band index within the capture.
    /** Capture time in days. */
    double captureDay = 0.0;
    /**
     * Capture day of the reference this delta was encoded against
     * (< 0 when the record is self-contained).
     */
    double referenceDay = -1.0;
    /** Full download: decodes without consulting earlier records. */
    bool fullDownload = false;
    /** Serialized EncodedImage size in bytes. */
    uint64_t payloadBytes = 0;
};

/** Index entry: metadata plus where the payload lives in its shard. */
struct RecordEntry
{
    RecordMeta meta;
    /** Byte offset of the payload within its shard file. */
    uint64_t payloadOffset = 0;
    /** CRC32 of the payload bytes. */
    uint32_t payloadCrc = 0;
};

/** Outcome of opening an archive (aggregated across shards). */
struct ScanReport
{
    /** Records recovered from the valid prefixes of all shards. */
    size_t recordCount = 0;
    /** Bytes of the valid prefixes (headers included). */
    uint64_t validBytes = 0;
    /** True when any shard discarded a corrupt/truncated tail. */
    bool truncatedTail = false;
};

/**
 * Read-only mapping of a shard file's first bytes (defined in
 * archive.cc). Shared by the shard that made it and by every
 * PayloadView into it; the last owner to let go unmaps it.
 */
class Mapping;

/**
 * View of one record's payload bytes, exactly as appended and
 * zero-copy: the pointer aims straight into the read-only mapping of
 * the record's shard file, and the view co-owns that mapping. The
 * bytes therefore stay valid for the view's own lifetime — across
 * later appends and after the Archive is destroyed.
 */
class PayloadView
{
  public:
    PayloadView() = default;

    /** First payload byte (null for a default-constructed view). */
    const uint8_t *data() const { return data_; }

    /** Payload size in bytes. */
    size_t size() const { return size_; }

    /** Copy the viewed bytes into a fresh vector. */
    std::vector<uint8_t> toVector() const
    {
        return std::vector<uint8_t>(data_, data_ + size_);
    }

  private:
    friend class Archive;

    PayloadView(std::shared_ptr<const Mapping> mapping,
                const uint8_t *data, size_t size)
        : mapping_(std::move(mapping)), data_(data), size_(size)
    {
    }

    std::shared_ptr<const Mapping> mapping_;
    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
};

/**
 * Sharded append-only archive of encoded downloads with in-memory
 * per-shard indexes.
 *
 * Thread-safe with no exception: append(), the read accessors and
 * payload loads may all race freely (per-shard mutexes plus a global
 * record table under a shared mutex; no operation takes every shard
 * lock at once). A record's index never changes once append()
 * returns it.
 */
class Archive
{
  public:
    /** Shards used when the caller does not pick a count. */
    static constexpr int kDefaultShardCount = 8;

    /**
     * Open (or create) an archive.
     *
     * The path names a directory (created as needed); an existing
     * regular file at the path is an open error
     * (OpenErrorKind::NotADirectory) and is never modified, and an
     * empty path is an open error too (OpenErrorKind::Unwritable).
     *
     * @param path Directory path (non-empty).
     * @param shardCount Shards to create (<= 0 picks
     *        kDefaultShardCount). An existing directory's manifest
     *        wins over this argument.
     */
    explicit Archive(const std::string &path, int shardCount = 0);

    /**
     * Open with explicit options (durability policy included). Any
     * open failure is fatal(); use open() for a typed error instead.
     */
    Archive(const std::string &path, const ArchiveOptions &options);

    /**
     * Fail-closed open: returns the archive, or nullptr with `error`
     * (when non-null) describing why — a zero-byte or header-corrupt
     * shard, a manifest referencing a missing shard, an unwritable
     * directory, a shard grown by a foreign writer, and the other
     * OpenErrorKind cases — instead of terminating the process the
     * way the constructors do. On success `error` is left untouched.
     */
    static std::unique_ptr<Archive> open(const std::string &path,
                                         const ArchiveOptions &options,
                                         ArchiveOpenError *error);

    Archive(const Archive &) = delete;            ///< Non-copyable.
    Archive &operator=(const Archive &) = delete; ///< Non-copyable.

    /** Result of the open()-time scan (aggregated over shards). */
    const ScanReport &scanReport() const { return scanReport_; }

    /** Number of shards (fixed for the archive's lifetime). */
    int shardCount() const { return static_cast<int>(shards_.size()); }

    /** Shard index the given location hashes to. */
    int shardForLocation(int locationId) const;

    /**
     * Append one record.
     *
     * Thread-safe; appends to different shards proceed in parallel.
     *
     * @param meta Record metadata (payloadBytes is overwritten).
     * @param payload Serialized EncodedImage bytes.
     * @return Global index of the new record.
     */
    size_t append(const RecordMeta &meta,
                  const std::vector<uint8_t> &payload);

    /** Number of indexed records across all shards. */
    size_t recordCount() const;

    /** Metadata + location of record `idx` (by value: thread-safe). */
    RecordEntry record(size_t idx) const;

    /**
     * The (global id, metadata) pairs of one (location, band) chain in
     * append order, snapshotted under one shard lock. Append order is
     * download-completion order — ARQ retransmission can complete
     * captures out of capture order, so consumers that need day order
     * (the tile server) sort by RecordMeta::captureDay.
     */
    std::vector<std::pair<size_t, RecordMeta>>
    chainEntries(int locationId, int band) const;

    /** All (location, band) keys present in the archive. */
    std::vector<std::pair<int, int>> keys() const;

    /**
     * Load and CRC-verify the payload of record `idx` as an owned
     * copy. Prefer payloadView() on hot paths — this exists for
     * callers that need to keep bytes past the archive's lifetime.
     *
     * fatal()s when the stored bytes no longer match their CRC (disk
     * corruption after the open()-time scan).
     */
    std::vector<uint8_t> loadPayload(size_t idx) const;

    /**
     * View the payload of record `idx`, CRC-verified, without copying:
     * the one place a payload is checked after open(). The view
     * co-owns the shard mapping it points into, so its bytes outlive
     * later appends and this archive itself. The shard lock is
     * dropped before the CRC pass, so a cold read of a hot shard does
     * not stall that shard's appends. fatal()s when the stored bytes
     * no longer match their CRC, or when the shard file no longer
     * holds the record.
     */
    PayloadView payloadView(size_t idx) const;

    /** Total bytes across shard files (headers + payloads). */
    uint64_t fileBytes() const;

    /**
     * Force every shard's appended bytes to stable storage now,
     * regardless of the configured SyncPolicy. Returns false (after
     * trying every shard, and counting archive.fsync_failures) when
     * any fdatasync failed; a false return means the durability of
     * recent acknowledgements is unknown.
     */
    bool sync();

    /** The options this archive was opened with. */
    const ArchiveOptions &options() const { return options_; }

    /** Directory backing this archive. */
    const std::string &path() const { return path_; }

  private:
    /** One shard: container file, mutex, records and index. */
    struct Shard
    {
        mutable std::mutex mutex;
        /** Shard container file path. */
        std::string path;
        /** Records in shard-local append order. */
        std::deque<RecordEntry> records;
        /** (location, band) -> global record ids, append order. */
        std::map<std::pair<int, int>, std::vector<size_t>> index;
        /** Next append position (file header included). */
        uint64_t appendOffset = 0;
        /** Read-only mapping of the shard file's first bytes, or
         *  null; views into it co-own it. */
        std::shared_ptr<const Mapping> mapping;
        /** Bytes appended since the last fdatasync (Interval policy). */
        uint64_t bytesSinceSync = 0;
    };

    /** Record id -> owning shard and shard-local index. */
    struct GlobalRef
    {
        uint32_t shard = 0;
        uint32_t local = 0;
    };

    Archive(const std::string &path, const ArchiveOptions &options,
            ArchiveOpenError *error);
    bool openShards(int shardCount);
    /**
     * Record an open failure: stores into the caller-provided error
     * slot when one exists (open() path), fatal()s otherwise
     * (constructor path). Returns false for tail-calling.
     */
    bool openFail(OpenErrorKind kind, std::string detail);
    /**
     * Append one record to `shard`'s file and push it onto the
     * shard's record list. Requires shard.mutex held; follow with
     * indexRecordLocked() to assign its global id.
     */
    void writeRecordLocked(Shard &shard, const RecordMeta &meta,
                           const std::vector<uint8_t> &payload);
    /**
     * Assign the next global id to (shardIdx, local) and add it to
     * the shard's (location, band) index: the one place records are
     * numbered, by append() and by the open scan. Requires shard.mutex
     * and a unique lock on globalMutex_ held, or the archive still
     * being opened (one thread, no other reference yet).
     */
    size_t indexRecordLocked(size_t shardIdx, uint32_t local,
                             const RecordMeta &meta);
    /**
     * The shard's mapping, remapped over the whole file first when it
     * ends before byte `end`. fatal()s, naming the shard, when the
     * file no longer holds `end` bytes or cannot be mapped. Requires
     * shard.mutex held.
     */
    std::shared_ptr<const Mapping> mappingCovering(Shard &shard,
                                                   uint64_t end) const;

    std::string path_;
    ArchiveOptions options_;
    /** Error slot active during construction (null = fatal on error). */
    ArchiveOpenError *err_ = nullptr;
    std::vector<std::unique_ptr<Shard>> shards_;
    /** Global record table; guards ordering of ids across shards. */
    mutable std::shared_mutex globalMutex_;
    std::deque<GlobalRef> globalRecords_;
    ScanReport scanReport_;
};

} // namespace earthplus::ground

#endif // EARTHPLUS_GROUND_ARCHIVE_HH

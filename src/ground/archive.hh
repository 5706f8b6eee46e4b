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
 * Appends go to the end of a shard file; open() scans every shard to
 * rebuild the in-memory indexes and is corruption-tolerant per shard:
 * a truncated or corrupt tail record stops that shard's scan, the
 * valid prefix stays usable, and the next append to the shard rewinds
 * over the garbage. Payload reads are backed by `mmap` (with a stdio
 * fallback when a shard cannot be mapped), so serving resolves delta
 * chains zero-copy: payloadView() hands out pointers into the mapping
 * and the codec parses the stream straight out of the page cache. Views
 * stay valid for the archive's lifetime — grown files are remapped,
 * and superseded mappings are retired, not unmapped, until the
 * archive is destroyed. compact() drops records captured before the
 * latest full download of their (location, band) — queries for the
 * pruned days stop resolving, which is the storage/history trade-off
 * compaction exists to make.
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
     * itself completes before the acknowledgement). Metadata
     * operations (manifest creation and compaction renames) still get
     * the full temp-fsync-rename-dirsync choreography under every
     * policy.
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

/** Outcome of one Archive::applyStoragePressure() pass. */
struct PressureReport
{
    /** Shard-file bytes reclaimed by the rewrite. */
    uint64_t bytesReclaimed = 0;
    /** Records whose payloads codec::truncateStream() cut smaller. */
    size_t recordsTruncated = 0;
    /** Records that could not shrink: streams already cut to their
     *  floor (codec::streamHeaderFloor()). */
    size_t recordsSkipped = 0;
    /** True when the pass hit the archive's degradation floor — every
     *  payload already cut to its header floor — while still above
     *  the requested target. */
    bool atFloor = false;
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
 * Borrowed view of one record's payload bytes.
 *
 * The pointer aims straight into the shard file's read-only mapping
 * (zero-copy); on the stdio fallback path (the shard could not be
 * mapped) the view owns a heap copy. Either way the bytes stay valid
 * for the lifetime of the Archive that produced the view (mappings are
 * retired, never unmapped, while the archive lives).
 */
class PayloadView
{
  public:
    PayloadView() = default;

    /** Zero-copy view into storage owned by the archive. */
    PayloadView(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
    }

    /** Owning view (portable fallback path). */
    explicit PayloadView(std::vector<uint8_t> owned)
        : owned_(std::make_shared<std::vector<uint8_t>>(std::move(owned)))
    {
        data_ = owned_->data();
        size_ = owned_->size();
    }

    /** First payload byte (null for an empty payload). */
    const uint8_t *data() const { return data_; }

    /** Payload size in bytes. */
    size_t size() const { return size_; }

    /** Copy the viewed bytes into a fresh vector. */
    std::vector<uint8_t> toVector() const
    {
        return std::vector<uint8_t>(data_, data_ + size_);
    }

  private:
    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
    std::shared_ptr<std::vector<uint8_t>> owned_;
};

/**
 * Sharded append-only archive of encoded downloads with in-memory
 * per-shard indexes.
 *
 * Thread-safe: append(), the read accessors and payload loads may all
 * race freely (per-shard mutexes plus a global record table under a
 * shared mutex). compact() is the one exception — it rewrites every
 * shard and reassigns record indices, so it must not run concurrently
 * with anything (see its doc comment).
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

    /** Unmaps every shard (including retired mappings). */
    ~Archive();

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
     * Indices of records for one (location, band), in append order.
     * Append order is download-completion order — ARQ retransmission
     * can complete captures out of capture order, so consumers that
     * need day order (the tile server) sort by RecordMeta::captureDay.
     */
    std::vector<size_t> chain(int locationId, int band) const;

    /**
     * The chain's (global id, metadata) pairs in append order,
     * snapshotted under one shard lock — the serving hot path uses
     * this instead of a record() round trip per chain element.
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
     * Borrow the payload of record `idx`, CRC-verified, without
     * copying when the shard is mmap-backed. The view stays valid for
     * this archive's lifetime (not across compact()).
     */
    PayloadView payloadView(size_t idx) const;

    /**
     * Rewrite every shard keeping, for each (location, band), only
     * the records captured at or after its latest full download
     * ("latest" by capture day — append order can differ under ARQ).
     *
     * This intentionally prunes history: queries for days before a
     * chain's latest full download stop resolving after a compact.
     * Record indices are reassigned and outstanding PayloadViews are
     * invalidated, so anything holding indices or views into this
     * archive (a TileServer and its caches in particular) must be
     * discarded and rebuilt — do not compact while serving or
     * appending.
     *
     * @return Bytes reclaimed across all shards.
     */
    uint64_t compact();

    /**
     * Degrade the archive in place to fit `targetBytes` of shard-file
     * storage, cutting payloads with the codec's tile-fair
     * codec::truncateStream() instead of evicting records: every
     * record — and every acknowledged append — survives the pass, at
     * reduced quality. The byte deficit is spread proportionally over
     * the cuttable span (payload size minus the cutter's floor) of
     * every payload; a
     * record that cannot shrink is left byte-identical (and counted in
     * PressureReport::recordsSkipped). Every payload must be an
     * encoded-image stream; one that does not parse is fatal, like a
     * CRC mismatch.
     *
     * Durability follows compact(): each shard's records are staged to
     * 'shard-NNN.epar.tmp', fsynced, renamed over the live shard, and
     * the directory is fsynced — a crash anywhere leaves every shard
     * either fully old or fully new. Like compact(), this rewrites
     * every shard and reassigns record indices/views, so it must not
     * run concurrently with serving or appending.
     *
     * @param targetBytes Desired ceiling for fileBytes(). A pass that
     *        cannot reach it (all payloads at their floor) reports
     *        atFloor instead of failing.
     */
    PressureReport applyStoragePressure(uint64_t targetBytes);

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
        /** Read-only mapping of the shard file, or null. */
        const uint8_t *mapAddr = nullptr;
        /** Mapped length (on growth-visible hosts, past the file). */
        size_t mapLen = 0;
        /** File bytes verified present behind the mapping so far. */
        uint64_t mapValidBytes = 0;
        /** Superseded mappings kept alive for outstanding views. */
        std::vector<std::pair<const uint8_t *, size_t>> retired;
        /** Scan outcome for this shard. */
        ScanReport scan;
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
     * indexRecordLocked() to assign its global id. `persist` false
     * skips the file write (the rewrite's replay, after the shard
     * file was already rewritten via temp + rename).
     */
    RecordEntry writeRecordLocked(Shard &shard, const RecordMeta &meta,
                                  const std::vector<uint8_t> &payload,
                                  bool persist = true);
    /**
     * Assign the next global id to (shardIdx, local) and add it to
     * the shard's (location, band) index. Requires shard.mutex and a
     * unique lock on globalMutex_ held.
     */
    size_t indexRecordLocked(size_t shardIdx, uint32_t local,
                             const RecordMeta &meta);
    /** Map (or grow the mapping of) `shard` to cover `end` bytes. */
    bool ensureMapped(Shard &shard, uint64_t end) const;
    /**
     * Read-and-verify, the one place a payload is checked after
     * open(): record `gid` (shard-local index `local`) read through
     * the shard's mapping — by a private stdio read when the shard
     * cannot be mapped — and fatal() unless it matches its stored
     * CRC. Requires shard.mutex held; a non-null `release` is
     * unlocked before the CRC pass, so a cold read of a hot shard
     * does not stall that shard's appends.
     */
    PayloadView readPayloadLocked(Shard &shard, size_t gid,
                                  uint32_t local,
                                  std::unique_lock<std::mutex> *release)
        const;
    /**
     * Replace the archive's contents with `records` (in global-id
     * order): stage each shard's share to 'shard-NNN.epar.tmp', fsync,
     * rename over the live shard, fsync the directory, then rebuild
     * the in-memory records and indexes by replay. The shared
     * crash-consistent rewrite under compact() and
     * applyStoragePressure(). Requires every shard mutex and a unique
     * lock on globalMutex_ held. Returns total shard-file bytes after
     * the rewrite.
     */
    uint64_t rewriteAllShardsLocked(
        std::vector<std::pair<RecordMeta, std::vector<uint8_t>>>
            &records);

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

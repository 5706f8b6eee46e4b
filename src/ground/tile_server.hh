/**
 * @file
 * Decode-on-demand tile server over the encoded archive.
 *
 * Consumers of the ground segment do not want whole downloads — they
 * ask for "this field, that day, band 3" (a tile rectangle). Decoding
 * the full delta chain per request would be prohibitively expensive
 * at serving scale, so the server:
 *
 *  - resolves a (location, day, band) to its delta chain: the latest
 *    full download at or before the day, plus every delta after it,
 *    newest record wins per tile;
 *  - decodes only the tiles intersecting the requested rectangle
 *    (codec::decodeTiles — tiles are self-contained sub-chunks),
 *    parsing payloads straight out of the archive's file mapping
 *    (Archive::payloadView, no staging copy);
 *  - keeps every decoded tile, cached or still decoding, in **one
 *    tile table** (TileTable) shared by all queries: a warm working
 *    set serves from memory under a byte budget, and when two queries
 *    race on the same cold tile one claims and decodes it while the
 *    other joins the same entry instead of decoding twice (the
 *    thundering-herd guard a hot-spot workload needs);
 *  - **prefetches along the delta chain**: a consumer stepping
 *    record by record through a location's history (the dominant
 *    analytic access pattern) triggers a background decode of the
 *    next record's chain into the cache, off the serving threads'
 *    latency path; a jump to another day, forward or back, does not;
 *  - tracks per-query latency and reports p50/p99/p999 in StatsView —
 *    the serving SLO numbers, not just throughput;
 *  - exposes an **async core** (serveAsync) whose completion is
 *    posted off the global thread pool, so event-loop front ends
 *    (src/net) compose with serving without blocking their loop
 *    thread; serve()/serveBatch() are thin synchronous wrappers.
 *
 * The server is the one ground layer that reads the stream format:
 * the archive and the downlink carry payloads as opaque bytes, and
 * parseRecord() is where a payload becomes an EncodedImage. A quality
 * hint is a byte budget handed to codec::decodeTiles(), which decodes
 * each tile as the record's tile-fair cut would; no cut record is
 * ever built.
 *
 * Every outcome is reported through one TileResult carrying a typed
 * ServeError — the same enum the network protocol's EPTR status byte
 * transports, so in-process and remote callers see identical
 * semantics.
 */

#ifndef EARTHPLUS_GROUND_TILE_SERVER_HH
#define EARTHPLUS_GROUND_TILE_SERVER_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "ground/archive.hh"
#include "raster/plane.hh"
#include "util/parallel.hh"
#include "util/telemetry.hh"

namespace earthplus::codec {
struct EncodedImage;
}

namespace earthplus::ground {

/**
 * Typed outcome of one tile serve, shared verbatim by the in-process
 * API and the network protocol's EPTR status byte (values are wire
 * format — never renumber, only append).
 */
enum class ServeError : uint8_t
{
    /** The full requested rectangle was served. */
    None = 0,
    /** No archived download covers (location, band) at the query day. */
    NotFound = 1,
    /**
     * The rectangle overhung the imaged area and was clipped; the
     * pixels hold the (non-empty) intersection. A partial answer, not
     * a failure: TileResult::ok() is still true.
     */
    Truncated = 2,
    /**
     * Load-shed by a serving front's admission control before
     * reaching the server; retry after TileResult::retryAfterMs.
     * Never produced by the in-process serve path.
     */
    Shed = 3,
    /** Malformed query (non-positive extent, rect outside the image,
     *  bad layer count, negative ids, non-finite day). */
    BadQuery = 4,
    /**
     * A record the query needed holds a payload that does not parse as
     * a stream of this build's format (say, one an older build wrote).
     * No pixels; other (location, band)s keep serving.
     */
    Corrupt = 5,
};

/** Short stable name of a ServeError ("ok", "not_found", ...). */
const char *serveErrorName(ServeError error);

/**
 * A query rectangle clipped against an image, from
 * TileQuery::clipTo() — the single clamping authority every serve
 * path (in-process and network-parsed) goes through.
 */
struct ClippedRect
{
    int x0 = 0; ///< Left edge after clipping (inclusive).
    int y0 = 0; ///< Top edge after clipping (inclusive).
    int x1 = 0; ///< Right edge after clipping (exclusive).
    int y1 = 0; ///< Bottom edge after clipping (exclusive).
    /** True when clipping shrank the requested rectangle. */
    bool clipped = false;

    /** True when nothing of the request intersects the image. */
    bool
    empty() const
    {
        return x0 >= x1 || y0 >= y1;
    }
};

/** One tile-rectangle request. */
struct TileQuery
{
    int locationId = 0; ///< Location whose imagery is requested.
    /** Serve the image state as of this day. */
    double day = 0.0;
    int band = 0;   ///< Band index.
    int x0 = 0;     ///< Requested rect: left edge (clipped).
    int y0 = 0;     ///< Requested rect: top edge (clipped).
    int width = 0;  ///< Requested rect: width in pixels.
    int height = 0; ///< Requested rect: height in pixels.
    /**
     * Byte-budget fidelity hint: -1 and 100 serve full fidelity (the
     * serve folds 100 into -1, so both share decoded tiles); 0..99
     * decodes each record at that percentage of its payload bytes
     * (codec::decodeTiles()' budget: the pixels of the record's
     * tile-fair cut, never below the cutter's floor) — a fast
     * low-fidelity first answer. A
     * reduced-quality serve schedules a background full-quality
     * decode of the same records, which warms only the full-fidelity
     * tiles: a later full-fidelity query is served from the cache,
     * while a repeated reduced query gets its own cached reduced
     * tiles back unrefined (the tile-table key includes the quality).
     */
    int quality = -1;

    /**
     * Image-independent validity check: ServeError::None for a
     * well-formed query, ServeError::BadQuery for non-positive
     * extents, a far edge (x0 + width, y0 + height) past INT_MAX,
     * negative location/band ids, a non-finite day, or quality
     * outside [-1, 100]. Both the
     * serve pipeline and the network frame parser route queries
     * through this single check, so a network-decoded query cannot
     * bypass validation.
     */
    ServeError validate() const;

    /**
     * Clip the requested rectangle against an imageWidth x
     * imageHeight image. This is the only clamping site in the
     * serving stack; the result's `clipped` flag is what turns
     * into ServeError::Truncated when the intersection is non-empty.
     */
    ClippedRect clipTo(int imageWidth, int imageHeight) const;
};

/** Answer to one TileQuery. */
struct TileResult
{
    /**
     * Outcome of the serve. A default-constructed result reports
     * NotFound; the serve pipeline upgrades it to None/Truncated
     * (payload valid), BadQuery or Corrupt. Network fronts add Shed.
     */
    ServeError error = ServeError::NotFound;
    /** Requested pixels (clipped rectangle, zero-filled where no
     *  record ever covered a tile). Valid only when ok(). */
    raster::Plane pixels;
    /** Capture day of the newest record that contributed. */
    double servedDay = 0.0;
    /** Wall-clock nanoseconds this query spent inside the server
     *  (chain resolution through paste; excludes any network front's
     *  queueing). Zero for Shed responses. */
    uint64_t serveNs = 0;
    /** For Shed results: suggested client backoff in milliseconds. */
    uint32_t retryAfterMs = 0;
    /** Tiles whose decode ran for this query (cache misses). */
    int tilesDecoded = 0;
    /** Tiles served ready from the tile table (cache hits). */
    int tilesFromCache = 0;
    /** Tiles served by joining another query's in-flight decode. */
    int tilesCoalesced = 0;

    /** True when `pixels` holds a servable answer (None/Truncated). */
    bool
    ok() const
    {
        return error == ServeError::None ||
               error == ServeError::Truncated;
    }
};

/**
 * One coherent serving-statistics view: the telemetry registry's
 * ground.* metrics (docs/OBSERVABILITY.md naming) windowed to this
 * server's lifetime (construction, or the last resetStats()). This
 * replaces the old ServerStats side-tallies — the registry is the
 * single source of truth, and StatsView is a read of it, so the
 * snapshotJson() export and this accessor can never disagree.
 *
 * The window subtracts per-server baselines from the process-wide
 * metrics; when several servers serve concurrently in one process,
 * each window spans the whole process's serving activity during its
 * lifetime (use the registry directly to attribute finer).
 */
struct StatsView
{
    uint64_t queries = 0;      ///< Window over ground.serve.queries.
    uint64_t tilesDecoded = 0; ///< Window over ground.tiles.decoded.
    /** Window over ground.tiles.cache_hit (LRU hits). */
    uint64_t tilesCacheHit = 0;
    /** Window over ground.tiles.coalesced (joined in-flight decodes). */
    uint64_t tilesCoalesced = 0;
    /** Window over ground.coalesce.claims (decode claims taken). */
    uint64_t coalesceClaims = 0;
    /** This server's tile-table evictions in the window. */
    uint64_t cacheEvictions = 0;
    /** Window over ground.prefetch.tasks (background warmups run). */
    uint64_t prefetchTasks = 0;
    /** Window over ground.prefetch.dropped (saturated-queue drops). */
    uint64_t prefetchDropped = 0;

    /**
     * Median foreground serve() latency in milliseconds, from the
     * process-wide "ground.serve.latency_ns" histogram windowed to
     * the same baseline: exact counts, log-bucketed values (error
     * bounded by telemetry::Histogram::kMaxRelativeError), covering
     * *every* query in the window rather than a recent ring.
     */
    double latencyP50Ms = 0.0;
    /** 99th-percentile foreground serve() latency in milliseconds. */
    double latencyP99Ms = 0.0;
    /** 99.9th-percentile foreground serve() latency in milliseconds. */
    double latencyP999Ms = 0.0;

    /**
     * Fraction of tile serves that did not pay for a decode, in
     * [0, 1]: cache hits and coalesced joins both count as warm.
     */
    double
    hitRate() const
    {
        uint64_t warm = tilesCacheHit + tilesCoalesced;
        uint64_t total = tilesDecoded + warm;
        return total ? static_cast<double>(warm) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * A decoded tile, shared read-only by the tile table and every query
 * that crops from it.
 */
using SharedTile = std::shared_ptr<const raster::Plane>;

/** (record index, tile index, quality): one decode unit. */
using TileKey = std::tuple<size_t, int, int>;

/** What one TileTable::lookup() found. */
struct TileLookup
{
    enum class Kind
    {
        /** A decoded tile: `tile` is ready. */
        Hit,
        /** Another query's decode in flight: `tile` completes with it. */
        Join,
        /**
         * A new claim: the caller must decode the tile and hand it to
         * TileTable::fulfil(), or its error to TileTable::fail().
         */
        Claim,
    };
    Kind kind = Kind::Claim;
    /** The entry's tile; ready for a Hit, pending otherwise. */
    std::shared_future<SharedTile> tile;
};

/**
 * The one table of decoded tiles, cached and in flight, keyed by
 * TileKey. Each entry is a shared future: ready once its tile is
 * decoded (a cache entry on the LRU list), pending while the query
 * that claimed it decodes (joined by racing queries, never evicted).
 * Thread-safe and sharded by key hash; each shard owns an equal slice
 * of the byte budget, its own LRU list and one mutex, so a hit costs
 * one lock acquisition and a decode two (claim, fulfil). Tiles are
 * held by shared pointer, so neither a hit nor a fulfil copies
 * pixels; each ready tile counts its full pixel bytes against the
 * budget.
 */
class TileTable
{
  public:
    /** @param capacityBytes Pixel-storage budget (0 keeps nothing). */
    explicit TileTable(size_t capacityBytes);

    /** One shard-locked lookup: a hit, a join, or a new claim. */
    TileLookup lookup(const TileKey &key);

    /**
     * Publish a claimed tile to its joiners and keep it, evicting
     * least-recently-used ready tiles over the shard budget. A tile
     * larger than a whole shard's budget is handed out, not kept.
     */
    void fulfil(const TileKey &key, SharedTile tile);

    /** Hand a claimed decode's error to its joiners; frees the key. */
    void fail(const TileKey &key, std::exception_ptr error);

    /** Bytes of ready tiles currently kept. */
    size_t sizeBytes() const;

    /** Ready tiles evicted so far. */
    uint64_t evictions() const;

  private:
    static constexpr size_t kShards = 8;

    struct Entry
    {
        std::promise<SharedTile> promise;
        std::shared_future<SharedTile> tile;
        /** Pixel bytes; 0 while pending. */
        size_t bytes = 0;
        /** Position on the LRU list; set once ready. */
        std::list<TileKey>::iterator lruPos;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::map<TileKey, Entry> entries;
        std::list<TileKey> lru; // ready entries, front = most recent
        size_t sizeBytes = 0;
        uint64_t evictions = 0;
    };

    Shard &shardFor(const TileKey &key);

    size_t shardCapacityBytes_;
    Shard shards_[kShards];
};

/** Tuning knobs of a TileServer. */
struct TileServerOptions
{
    /** Decoded-tile cache budget in bytes. */
    size_t cacheBytes = 64u << 20;
    /** Enable one-record-step delta-chain prefetching. */
    bool prefetch = true;
};

/**
 * Serves tile queries from an Archive.
 */
class TileServer
{
  public:
    /**
     * Invoked exactly once with the finished result of a serveAsync()
     * call, on whichever thread completed the serve (a pool worker,
     * or the caller when the pool runs inline). Must not throw; keep
     * it cheap — it runs on the serving latency path.
     */
    using ServeCompletion = std::function<void(const TileResult &)>;

    /**
     * @param archive Archive to serve from (must outlive the server).
     *        The server memoizes stream geometry and decoded tiles by
     *        record index, which the archive never reassigns, so
     *        concurrent appends are fine (they add new indices).
     * @param options Cache budget and prefetch switch.
     */
    explicit TileServer(const Archive &archive,
                        const TileServerOptions &options = {});

    /** Stops the prefetch worker; in-flight prefetches finish first. */
    ~TileServer();

    TileServer(const TileServer &) = delete;            ///< Non-copyable.
    TileServer &operator=(const TileServer &) = delete; ///< Non-copyable.

    /**
     * Answer one query asynchronously. Thread-safe.
     *
     * The serve runs through util::ThreadPool::global(): queued to a
     * worker when the caller could fan out, executed inline (future
     * already ready on return) on a single-lane pool or from inside a
     * parallel region — the same discipline as every other pool use,
     * so nested serving can never deadlock the fixed-size pool.
     *
     * @param query The tile rectangle to serve.
     * @param onDone Optional completion, invoked with the result
     *        after the serve finishes (not invoked if the serve
     *        throws; the exception is delivered via the future).
     * @return Shared future yielding the TileResult.
     */
    std::shared_future<TileResult>
    serveAsync(const TileQuery &query, ServeCompletion onDone = {});

    /**
     * Answer one query synchronously. Semantically identical to
     * serveAsync(query).get(), but the core runs on the calling
     * thread (a blocked caller gains nothing from a pool hop).
     * Thread-safe.
     */
    TileResult serve(const TileQuery &query);

    /**
     * Answer a batch of queries, fanned across the global thread pool;
     * results are returned in query order.
     */
    std::vector<TileResult> serveBatch(const std::vector<TileQuery> &batch);

    /** Serving statistics windowed since construction / resetStats(). */
    StatsView statsView() const;

    /** Reset the statistics window (cache contents are kept). */
    void resetStats();

    /**
     * Block until queued prefetch work has finished. Benchmarks and
     * tests use this to make warm-cache measurements deterministic;
     * production callers never need it.
     */
    void waitForPrefetchIdle();

  private:
    /**
     * Memoized per-record stream geometry (dimensions + coded-tile
     * flags), so warm-path queries resolve which record serves each
     * tile without re-reading or re-parsing archive payloads.
     */
    struct StreamInfo
    {
        int width = 0;
        int height = 0;
        int tileSize = 0;
        std::vector<uint8_t> tileCoded;
    };

    /**
     * Raw values of the ground.* registry metrics this server windows
     * for StatsView; captured at construction and resetStats().
     */
    struct MetricsBaseline
    {
        uint64_t queries = 0;
        uint64_t tilesDecoded = 0;
        uint64_t tilesCacheHit = 0;
        uint64_t tilesCoalesced = 0;
        uint64_t coalesceClaims = 0;
        uint64_t prefetchTasks = 0;
        uint64_t prefetchDropped = 0;
        uint64_t cacheEvictions = 0;
    };

    /** Where a query's day sits in its (location, band) chain. */
    struct ChainPlace
    {
        /** Capture day of the newest record at or before the query day. */
        double newestDay = -std::numeric_limits<double>::infinity();
        /** Capture day of the first record after it (+inf when none). */
        double nextDay = std::numeric_limits<double>::infinity();
    };

    /** Memoized geometry for a record, or null when not yet parsed. */
    const StreamInfo *findInfo(size_t recordIdx) const;

    /** Memoize geometry extracted from an already-parsed stream. */
    const StreamInfo &rememberInfo(size_t recordIdx,
                                   const codec::EncodedImage &stream);

    /**
     * One foreground serve: serveImpl() wrapped with the latency
     * histogram, registry counters, per-query timing, and prefetch
     * scheduling. Both the inline and the pooled serveAsync() paths
     * land here.
     */
    TileResult serveFront(const TileQuery &query);

    /**
     * The serve pipeline: validation, chain resolution, tile-table
     * lookup and decode, paste. A valid query's quality 100 is folded
     * into -1 here, so both full-fidelity spellings share one table
     * key. serveFront() wraps it with stats + latency + prefetch
     * scheduling; background warmups call it directly so they stay
     * out of the foreground statistics. When `chainOut` is non-null it
     * receives the query's place in its chain — the chain is already
     * being scanned here, so the prefetcher gets it without a second
     * locked pass. A record that does not parse ends the serve as
     * ServeError::Corrupt, with any tile claims the query held failed.
     */
    TileResult serveImpl(TileQuery query, ChainPlace *chainOut = nullptr);

    /** serveImpl() up to a record that does not parse, which throws. */
    TileResult serveChain(TileQuery query, ChainPlace *chainOut);

    /**
     * Schedule a warmup of `place.nextDay`'s chain when this query took
     * a one-record step forward: its newest record is the one the
     * previous query of the same (location, band) had next.
     */
    void maybePrefetch(const TileQuery &query, const ChainPlace &place);

    /**
     * Post serveImpl(`query`) to the background queue under trace span
     * `spanName`, counting the run in `tasks` or the drop in
     * `dropped`: the one warm path of prefetch and refine, which keeps
     * their decodes off the serving threads' latency path.
     */
    void warmInBackground(const TileQuery &query, const char *spanName,
                          telemetry::Counter &tasks,
                          telemetry::Counter &dropped);

    /**
     * Parse record `recordIdx`'s whole payload, straight out of the
     * archive's file mapping. Every quality parses the same stream;
     * the hint only sets the budget the decode runs at. A payload
     * tryDeserialize() refuses throws, for serveImpl() to report.
     */
    codec::EncodedImage parseRecord(size_t recordIdx) const;

    const Archive &archive_;
    TileTable table_;
    TileServerOptions options_;

    mutable std::mutex infoMutex_;
    std::map<size_t, StreamInfo> info_;

    /**
     * Per (location, band), the previous query's ChainPlace::nextDay:
     * one-record-step detection.
     */
    std::mutex prefetchMutex_;
    std::map<std::pair<int, int>, double> lastNextDay_;

    mutable std::mutex statsMutex_;
    /** Registry values at the start of the window (statsMutex_). */
    MetricsBaseline metricsBase_;
    /** Process-wide serve-latency histogram (nanoseconds). */
    telemetry::Histogram *latencyHist_;
    /**
     * Histogram state at construction / last resetStats(); statsView()
     * reports quantiles of snapshot().since(latencyBase_), so the
     * registry histogram stays monotonic while StatsView still
     * describes only this server's current window. Guarded by
     * statsMutex_.
     */
    telemetry::HistogramSnapshot latencyBase_;

    /** Declared last: its worker must stop before members above die. */
    std::unique_ptr<util::BackgroundQueue> prefetchQueue_;
};

} // namespace earthplus::ground

#endif // EARTHPLUS_GROUND_TILE_SERVER_HH

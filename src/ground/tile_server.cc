#include "ground/tile_server.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <utility>

#include "codec/codec.hh"
#include "raster/tile.hh"
#include "util/logging.hh"

namespace earthplus::ground {

namespace {

/**
 * Tile-server metrics, resolved once per process. Registry entries
 * are leaked, so the references outlive every TileServer. These are
 * the single source of truth for serving statistics: StatsView is a
 * windowed read of exactly these entries.
 */
struct ServeMetrics
{
    telemetry::Counter &queries =
        telemetry::counter("ground.serve.queries");
    telemetry::Counter &tilesDecoded =
        telemetry::counter("ground.tiles.decoded");
    telemetry::Counter &tilesFromCache =
        telemetry::counter("ground.tiles.cache_hit");
    telemetry::Counter &tilesCoalesced =
        telemetry::counter("ground.tiles.coalesced");
    telemetry::Counter &coalesceClaims =
        telemetry::counter("ground.coalesce.claims");
    telemetry::Histogram &coalesceWaitNs =
        telemetry::histogram("ground.coalesce.wait_ns");
    telemetry::Counter &prefetchTasks =
        telemetry::counter("ground.prefetch.tasks");
    telemetry::Counter &prefetchDropped =
        telemetry::counter("ground.prefetch.dropped");
    telemetry::Counter &refineTasks =
        telemetry::counter("ground.refine.tasks");
    telemetry::Counter &refineDropped =
        telemetry::counter("ground.refine.dropped");
    telemetry::Histogram &chainResolveNs =
        telemetry::histogram("ground.chain_resolve_ns");
    telemetry::Histogram &payloadParseNs =
        telemetry::histogram("ground.payload_parse_ns");
};

ServeMetrics &
serveMetrics()
{
    static ServeMetrics m;
    return m;
}

/**
 * The records that serve `query`, oldest first: records at or before
 * the query day, starting from the latest full download among them
 * (empty when there is none). `*nextDayOut` receives the capture day
 * of the first record after the query day (infinity when none).
 */
std::vector<std::pair<size_t, RecordMeta>>
resolveChain(const Archive &archive, const TileQuery &query,
             double *nextDayOut)
{
    // Append order is download-*completion* order, which ARQ
    // retransmissions can reorder relative to capture order, so sort
    // by capture day. One locked pass snapshots the whole chain's
    // metadata (the archive may be appended to concurrently; a
    // per-record lookup would pay two lock round trips per chain
    // element).
    std::vector<std::pair<size_t, RecordMeta>> relevant =
        archive.chainEntries(query.locationId, query.band);
    double nextDay = std::numeric_limits<double>::infinity();
    auto afterQuery = [&](const std::pair<size_t, RecordMeta> &e) {
        if (e.second.captureDay > query.day) {
            nextDay = std::min(nextDay, e.second.captureDay);
            return true;
        }
        return false;
    };
    relevant.erase(std::remove_if(relevant.begin(), relevant.end(),
                                  afterQuery),
                   relevant.end());
    *nextDayOut = nextDay;
    std::stable_sort(relevant.begin(), relevant.end(),
                     [](const auto &a, const auto &b) {
                         return a.second.captureDay < b.second.captureDay;
                     });
    size_t firstUseful = 0;
    for (size_t i = 0; i < relevant.size(); ++i)
        if (relevant[i].second.fullDownload)
            firstUseful = i;
    relevant.erase(relevant.begin(),
                   relevant.begin() + static_cast<ptrdiff_t>(firstUseful));
    return relevant;
}

} // anonymous namespace

const char *
serveErrorName(ServeError error)
{
    switch (error) {
    case ServeError::None:
        return "ok";
    case ServeError::NotFound:
        return "not_found";
    case ServeError::Truncated:
        return "truncated";
    case ServeError::Shed:
        return "shed";
    case ServeError::BadQuery:
        return "bad_query";
    }
    return "unknown";
}

ServeError
TileQuery::validate() const
{
    if (width <= 0 || height <= 0)
        return ServeError::BadQuery;
    // clipTo() computes x0 + width and y0 + height; off the wire both
    // terms are raw int32, so a far edge past INT_MAX is refused here
    // instead of overflowing there.
    if (x0 > std::numeric_limits<int>::max() - width ||
        y0 > std::numeric_limits<int>::max() - height)
        return ServeError::BadQuery;
    if (locationId < 0 || band < 0)
        return ServeError::BadQuery;
    if (!std::isfinite(day))
        return ServeError::BadQuery;
    if (quality < -1 || quality > 100)
        return ServeError::BadQuery;
    return ServeError::None;
}

ClippedRect
TileQuery::clipTo(int imageWidth, int imageHeight) const
{
    ClippedRect rect;
    rect.x0 = std::max(x0, 0);
    rect.y0 = std::max(y0, 0);
    rect.x1 = std::min(x0 + width, imageWidth);
    rect.y1 = std::min(y0 + height, imageHeight);
    rect.clipped = rect.x0 != x0 || rect.y0 != y0 ||
                   rect.x1 != x0 + width || rect.y1 != y0 + height;
    return rect;
}

DecodedTileCache::DecodedTileCache(size_t capacityBytes)
    : shardCapacityBytes_(capacityBytes / kShards)
{
}

DecodedTileCache::Shard &
DecodedTileCache::shardFor(const Key &key)
{
    size_t h = std::hash<size_t>()(std::get<0>(key)) ^
               std::hash<int>()(std::get<1>(key)) * 0x9e3779b9u;
    return shards_[h % kShards];
}

SharedTile
DecodedTileCache::get(size_t recordIdx, int tile, int quality)
{
    Key key{recordIdx, tile, quality};
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end())
        return nullptr;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->pixels;
}

void
DecodedTileCache::put(size_t recordIdx, int tile, int quality,
                      SharedTile pixels)
{
    size_t bytes = static_cast<size_t>(pixels->width()) *
                   static_cast<size_t>(pixels->height()) * sizeof(float);
    if (bytes > shardCapacityBytes_)
        return; // larger than a whole shard; never cacheable
    Key key{recordIdx, tile, quality};
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.count(key))
        return; // another thread filled it first
    shard.lru.push_front(Entry{key, std::move(pixels), bytes});
    shard.map[key] = shard.lru.begin();
    shard.sizeBytes += bytes;
    while (shard.sizeBytes > shardCapacityBytes_ && !shard.lru.empty()) {
        Entry &victim = shard.lru.back();
        shard.sizeBytes -= victim.bytes;
        shard.map.erase(victim.key);
        shard.lru.pop_back();
        ++shard.evictions;
    }
}

size_t
DecodedTileCache::sizeBytes() const
{
    size_t total = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.sizeBytes;
    }
    return total;
}

uint64_t
DecodedTileCache::evictions() const
{
    uint64_t total = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.evictions;
    }
    return total;
}

namespace {

TileServerOptions
optionsWithCacheBytes(size_t cacheBytes)
{
    TileServerOptions options;
    options.cacheBytes = cacheBytes;
    return options;
}

} // anonymous namespace

TileServer::TileServer(const Archive &archive, size_t cacheBytes)
    : TileServer(archive, optionsWithCacheBytes(cacheBytes))
{
}

TileServer::TileServer(const Archive &archive,
                       const TileServerOptions &options)
    : archive_(archive), cache_(options.cacheBytes), options_(options),
      latencyHist_(&telemetry::histogram("ground.serve.latency_ns"))
{
    // Baseline at construction: a fresh server's StatsView window
    // must not include queries an earlier server in this process ran.
    resetStats();
    if (options_.prefetch)
        prefetchQueue_ = std::make_unique<util::BackgroundQueue>(
            options_.prefetchQueueDepth);
}

TileServer::~TileServer()
{
    // Stop the prefetch worker before any member it touches dies.
    prefetchQueue_.reset();
}

const TileServer::StreamInfo *
TileServer::findInfo(size_t recordIdx) const
{
    std::lock_guard<std::mutex> lock(infoMutex_);
    auto it = info_.find(recordIdx);
    return it == info_.end() ? nullptr : &it->second;
}

const TileServer::StreamInfo &
TileServer::rememberInfo(size_t recordIdx,
                         const codec::EncodedImage &stream)
{
    StreamInfo parsed;
    parsed.width = stream.width;
    parsed.height = stream.height;
    parsed.tileSize = stream.tileSize;
    parsed.tileCoded = stream.tileCoded;
    std::lock_guard<std::mutex> lock(infoMutex_);
    return info_.emplace(recordIdx, std::move(parsed)).first->second;
}

std::shared_future<TileResult>
TileServer::serveAsync(const TileQuery &query, ServeCompletion onDone)
{
    // ThreadPool::submit carries the whole dispatch policy: a
    // multi-lane pool queues the serve to a worker (the future
    // completes off-thread, which is what lets an event loop keep
    // polling), while a single-lane pool or a caller already inside a
    // parallel region runs it inline — exactly the pre-async serve()
    // behavior, so in-process callers and benches see no change.
    return util::ThreadPool::global()
        .submit([this, query, done = std::move(onDone)]() {
            TileResult result = serveFront(query);
            if (done)
                done(result);
            return result;
        })
        .share();
}

TileResult
TileServer::serve(const TileQuery &query)
{
    // Equivalent to serveAsync(query).get(), but runs the core
    // directly on the calling thread: a blocked caller gains nothing
    // from a pool hop, and skipping the future keeps the sync path's
    // overhead identical to the pre-async API (the latency-histogram
    // bracketing tests measure that).
    return serveFront(query);
}

TileResult
TileServer::serveFront(const TileQuery &query)
{
    telemetry::TraceSpan span("ground.serve", "ground");
    uint64_t t0 = telemetry::nowNanos();
    double nextDay = std::numeric_limits<double>::infinity();
    TileResult result = serveImpl(query, &nextDay);
    result.serveNs = telemetry::nowNanos() - t0;
    if (telemetry::metricsEnabled())
        latencyHist_->record(result.serveNs);

    ServeMetrics &m = serveMetrics();
    m.queries.add();
    m.tilesDecoded.add(static_cast<uint64_t>(result.tilesDecoded));
    m.tilesFromCache.add(static_cast<uint64_t>(result.tilesFromCache));
    m.tilesCoalesced.add(static_cast<uint64_t>(result.tilesCoalesced));

    if (result.ok() && options_.prefetch)
        maybePrefetch(query, nextDay);
    // A reduced-fidelity answer went out fast; refine in the
    // background so the next identical query serves full quality.
    if (result.ok() && query.quality >= 0 && query.quality < 100)
        scheduleRefine(query);
    return result;
}

codec::EncodedImage
TileServer::parseRecord(size_t recordIdx, int quality) const
{
    telemetry::TraceSpan parseSpan("ground.payload_parse", "ground");
    telemetry::ScopedTimer timer(serveMetrics().payloadParseNs);
    PayloadView view = archive_.payloadView(recordIdx);
    const uint8_t *data = view.data();
    size_t size = view.size();
    if (quality >= 0 && quality < 100) {
        // Serve the record's tile-fair cut to quality% of its payload
        // bytes (never below the cutter's floor).
        size_t budget = std::max(
            codec::streamHeaderFloor(data, size),
            static_cast<size_t>(static_cast<double>(size) *
                                static_cast<double>(quality) / 100.0));
        return codec::EncodedImage::deserialize(
            codec::truncateStream(data, size, budget));
    }
    return codec::EncodedImage::deserialize(data, size);
}

TileResult
TileServer::serveImpl(const TileQuery &query, double *nextDayOut)
{
    TileResult result;
    if (query.validate() != ServeError::None) {
        result.error = ServeError::BadQuery;
        return result;
    }

    std::vector<std::pair<size_t, RecordMeta>> relevant;
    double nextDay = std::numeric_limits<double>::infinity();
    {
        telemetry::ScopedTimer timer(serveMetrics().chainResolveNs);
        relevant = resolveChain(archive_, query, &nextDay);
    }
    if (nextDayOut)
        *nextDayOut = nextDay;
    if (relevant.empty())
        return result; // NotFound (the default)

    // Memoized stream geometry: no payload I/O on the warm path. A
    // record parsed cold here is kept for this query, so the miss
    // branch below does not load + parse the same payload twice.
    std::map<size_t, codec::EncodedImage> parsedThisQuery;
    std::vector<const StreamInfo *> infos;
    infos.reserve(relevant.size());
    for (const auto &[idx, meta] : relevant) {
        if (const StreamInfo *hit = findInfo(idx)) {
            infos.push_back(hit);
            continue;
        }
        // Parse outside the info lock; concurrent first touches of
        // the same record both parse, the second insert is a no-op.
        // The payload view aims into the shard's file mapping, so
        // parsing copies only the entropy chunks, never the whole
        // serialized payload. The quality hint applies here too: a
        // reduced-fidelity parse reads the cut stream, and its
        // geometry (all in the header) is identical.
        codec::EncodedImage stream = parseRecord(idx, query.quality);
        infos.push_back(&rememberInfo(idx, stream));
        parsedThisQuery.emplace(idx, std::move(stream));
    }
    const StreamInfo &newest = *infos.back();
    raster::TileGrid grid(newest.width, newest.height, newest.tileSize);
    for (const StreamInfo *info : infos)
        EP_ASSERT(info->width == newest.width &&
                      info->height == newest.height &&
                      info->tileSize == newest.tileSize,
                  "archive chain mixes geometries for location %d band %d",
                  query.locationId, query.band);

    // Clip the request to the image — TileQuery::clipTo is the one
    // clamping authority; a rect that misses the image entirely is a
    // malformed request, not an absent record.
    ClippedRect rect = query.clipTo(newest.width, newest.height);
    if (rect.empty()) {
        result.error = ServeError::BadQuery;
        return result;
    }
    int x0 = rect.x0;
    int y0 = rect.y0;
    int x1 = rect.x1;
    int y1 = rect.y1;

    result.error =
        rect.clipped ? ServeError::Truncated : ServeError::None;
    result.pixels = raster::Plane(x1 - x0, y1 - y0, 0.0f);

    // Newest record wins per tile: walk streams newest -> oldest and
    // pick the first that coded the tile.
    int tx0 = x0 / newest.tileSize;
    int ty0 = y0 / newest.tileSize;
    int tx1 = (x1 - 1) / newest.tileSize;
    int ty1 = (y1 - 1) / newest.tileSize;
    // Tiles wanted from each stream (by relevant-chain position).
    std::vector<std::vector<int>> wanted(relevant.size());
    for (int ty = ty0; ty <= ty1; ++ty) {
        for (int tx = tx0; tx <= tx1; ++tx) {
            int t = grid.tileIndex(tx, ty);
            for (size_t s = relevant.size(); s-- > 0;) {
                if (infos[s]->tileCoded[static_cast<size_t>(t)]) {
                    wanted[s].push_back(t);
                    result.servedDay = std::max(
                        result.servedDay, relevant[s].second.captureDay);
                    break;
                }
            }
        }
    }

    for (size_t s = 0; s < relevant.size(); ++s) {
        if (wanted[s].empty())
            continue;
        size_t recordIdx = relevant[s].first;
        // Serve cached tiles; of the misses, *claim* the tiles nobody
        // is decoding (one promise per tile published under the
        // in-flight lock) and *join* the decodes already running —
        // identical concurrent queries dedupe onto one decode. The
        // whole claim lifecycle sits inside one try block: once a
        // claim is published, ANY exception before its fulfilment
        // must propagate into the future and release the key, or the
        // tile would be wedged for every later query.
        std::vector<int> misses;
        std::vector<std::promise<SharedTile>> claims;
        std::vector<TileKey> claimKeys;
        std::vector<std::pair<int, std::shared_future<SharedTile>>> joined;
        std::vector<std::pair<int, SharedTile>> tiles;
        size_t fulfilled = 0; // claims[0..fulfilled) have a value
        try {
            for (int t : wanted[s]) {
                if (SharedTile cached =
                        cache_.get(recordIdx, t, query.quality)) {
                    tiles.emplace_back(t, std::move(cached));
                    ++result.tilesFromCache;
                    continue;
                }
                TileKey key{recordIdx, t, query.quality};
                bool claimed = false;
                {
                    std::lock_guard<std::mutex> lock(inflightMutex_);
                    auto it = inflight_.find(key);
                    if (it != inflight_.end()) {
                        joined.emplace_back(t, it->second);
                    } else {
                        claims.emplace_back();
                        claimKeys.push_back(key);
                        misses.push_back(t);
                        inflight_[key] =
                            claims.back().get_future().share();
                        claimed = true;
                    }
                }
                if (!claimed)
                    continue;
                // Re-check the cache after claiming: a decode that
                // finished between our miss and our claim has already
                // done cache_.put() (put precedes the in-flight erase
                // that made our claim possible), so this read closes
                // the duplicate-decode window.
                if (SharedTile cached =
                        cache_.get(recordIdx, t, query.quality)) {
                    claims.back().set_value(cached);
                    {
                        std::lock_guard<std::mutex> lock(inflightMutex_);
                        inflight_.erase(key);
                    }
                    // Future holders keep the shared state alive.
                    claims.pop_back();
                    claimKeys.pop_back();
                    misses.pop_back();
                    tiles.emplace_back(t, std::move(cached));
                    ++result.tilesFromCache;
                }
            }
            if (!misses.empty()) {
                // Only a claimed miss pays for payload mapping +
                // stream parse, and a stream already parsed for
                // geometry this query is reused.
                auto itParsed = parsedThisQuery.find(recordIdx);
                codec::EncodedImage local;
                const codec::EncodedImage *stream;
                if (itParsed != parsedThisQuery.end()) {
                    stream = &itParsed->second;
                } else {
                    local = parseRecord(recordIdx, query.quality);
                    stream = &local;
                }
                serveMetrics().coalesceClaims.add(misses.size());
                // Decoding while holding claims may fan tile work
                // into the pool even though other
                // workers could be parked in fut.get() on exactly
                // these claims: parallelFor's helper jobs are
                // detached, so the calling thread drains the whole
                // range itself when no worker ever picks one up —
                // completion never depends on pool scheduling, which
                // is what makes this fan-out deadlock-free.
                telemetry::TraceSpan decodeSpan("ground.decode",
                                                "ground");
                auto decoded = codec::decodeTiles(*stream, misses);
                for (size_t i = 0; i < misses.size(); ++i) {
                    auto tile = std::make_shared<const raster::Plane>(
                        std::move(decoded[i]));
                    cache_.put(recordIdx, misses[i], query.quality, tile);
                    claims[i].set_value(tile);
                    fulfilled = i + 1;
                    {
                        std::lock_guard<std::mutex> lock(inflightMutex_);
                        inflight_.erase(claimKeys[i]);
                    }
                    tiles.emplace_back(misses[i], std::move(tile));
                    ++result.tilesDecoded;
                }
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(inflightMutex_);
            for (size_t i = fulfilled; i < claims.size(); ++i) {
                claims[i].set_exception(std::current_exception());
                inflight_.erase(claimKeys[i]);
            }
            throw;
        }
        for (auto &[t, fut] : joined) {
            // Safe to block: the claim holder always completes its own
            // decode — any pool fan-out it attempts degrades to a
            // caller-driven drain when workers are busy (detached
            // parallelFor helpers), so this join can never be queued
            // behind the very decode it waits on.
            {
                telemetry::TraceSpan joinSpan("ground.coalesce.join",
                                              "ground");
                telemetry::ScopedTimer wait(
                    serveMetrics().coalesceWaitNs);
                tiles.emplace_back(t, fut.get());
            }
            ++result.tilesCoalesced;
        }
        for (auto &[t, pixels] : tiles) {
            raster::TileRect r = grid.rect(t);
            // Intersection of this tile with the clipped request.
            int ix0 = std::max(r.x0, x0);
            int iy0 = std::max(r.y0, y0);
            int ix1 = std::min(r.x0 + r.width, x1);
            int iy1 = std::min(r.y0 + r.height, y1);
            if (ix0 >= ix1 || iy0 >= iy1)
                continue;
            result.pixels.paste(pixels->crop(ix0 - r.x0, iy0 - r.y0,
                                             ix1 - ix0, iy1 - iy0),
                                ix0 - x0, iy0 - y0);
        }
    }

    return result;
}

void
TileServer::maybePrefetch(const TileQuery &query, double nextDay)
{
    // Sequential-day detection: the same (location, band) was last
    // served an earlier day. One step forward predicts another.
    bool sequential = false;
    {
        std::lock_guard<std::mutex> lock(prefetchMutex_);
        auto key = std::make_pair(query.locationId, query.band);
        auto it = lastServedDay_.find(key);
        sequential = it != lastServedDay_.end() &&
                     query.day > it->second;
        lastServedDay_[key] = query.day;
    }
    if (!sequential || !prefetchQueue_)
        return;

    // `nextDay` (computed by serveImpl while it scanned the chain) is
    // the earliest record strictly after the query day. Prefetching
    // *that* day's chain warms exactly the records a continuing
    // sequential consumer asks for next.
    if (!std::isfinite(nextDay))
        return;

    TileQuery ahead = query;
    ahead.day = nextDay;
    bool posted = prefetchQueue_->post([this, ahead] {
        telemetry::TraceSpan span("ground.prefetch", "ground");
        serveImpl(ahead);
        serveMetrics().prefetchTasks.add();
    });
    if (!posted)
        serveMetrics().prefetchDropped.add();
}

void
TileServer::scheduleRefine(const TileQuery &query)
{
    if (!prefetchQueue_)
        return;
    TileQuery full = query;
    full.quality = -1;
    // Same BackgroundQueue as prefetching: refines stay off the
    // serving threads' latency path and never touch the global pool.
    bool posted = prefetchQueue_->post([this, full] {
        telemetry::TraceSpan span("ground.refine", "ground");
        serveImpl(full);
        serveMetrics().refineTasks.add();
    });
    if (!posted)
        serveMetrics().refineDropped.add();
}

std::vector<TileResult>
TileServer::serveBatch(const std::vector<TileQuery> &batch)
{
    telemetry::TraceSpan span("ground.serve_batch", "ground");
    return util::parallelMap(batch.size(), [&](size_t i) {
        return serve(batch[i]);
    });
}

StatsView
TileServer::statsView() const
{
    // Copy the baselines under the lock; read the registry and merge
    // the histogram shards outside it so percentile computation never
    // stalls concurrent serve() completions.
    MetricsBaseline base;
    telemetry::HistogramSnapshot histBase;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        base = metricsBase_;
        histBase = latencyBase_;
    }
    ServeMetrics &m = serveMetrics();
    StatsView out;
    out.queries = m.queries.value() - base.queries;
    out.tilesDecoded = m.tilesDecoded.value() - base.tilesDecoded;
    out.tilesCacheHit = m.tilesFromCache.value() - base.tilesCacheHit;
    out.tilesCoalesced = m.tilesCoalesced.value() - base.tilesCoalesced;
    out.coalesceClaims = m.coalesceClaims.value() - base.coalesceClaims;
    out.prefetchTasks = m.prefetchTasks.value() - base.prefetchTasks;
    out.prefetchDropped =
        m.prefetchDropped.value() - base.prefetchDropped;
    out.cacheEvictions = cache_.evictions() - base.cacheEvictions;
    telemetry::HistogramSnapshot window =
        latencyHist_->snapshot().since(histBase);
    constexpr double kNsPerMs = 1e6;
    out.latencyP50Ms = window.quantile(0.50) / kNsPerMs;
    out.latencyP99Ms = window.quantile(0.99) / kNsPerMs;
    out.latencyP999Ms = window.quantile(0.999) / kNsPerMs;
    return out;
}

void
TileServer::resetStats()
{
    // The registry metrics are monotonic by design; resetting the
    // window means re-baselining, not clearing.
    ServeMetrics &m = serveMetrics();
    MetricsBaseline base;
    base.queries = m.queries.value();
    base.tilesDecoded = m.tilesDecoded.value();
    base.tilesCacheHit = m.tilesFromCache.value();
    base.tilesCoalesced = m.tilesCoalesced.value();
    base.coalesceClaims = m.coalesceClaims.value();
    base.prefetchTasks = m.prefetchTasks.value();
    base.prefetchDropped = m.prefetchDropped.value();
    base.cacheEvictions = cache_.evictions();
    telemetry::HistogramSnapshot histBase = latencyHist_->snapshot();
    std::lock_guard<std::mutex> lock(statsMutex_);
    metricsBase_ = base;
    latencyBase_ = std::move(histBase);
}

void
TileServer::waitForPrefetchIdle()
{
    if (prefetchQueue_)
        prefetchQueue_->drain();
}

} // namespace earthplus::ground

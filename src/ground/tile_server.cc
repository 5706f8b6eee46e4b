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

/** Prefetch tasks queued before new hints are dropped. */
constexpr size_t kPrefetchQueueDepth = 16;

/** A record payload tryDeserialize() refused (TileServer::parseRecord). */
struct CorruptRecord : std::exception
{
};

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
    telemetry::Counter &corrupt = telemetry::counter("ground.serve.corrupt");
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
    case ServeError::Corrupt:
        return "corrupt";
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

TileTable::TileTable(size_t capacityBytes)
    : shardCapacityBytes_(capacityBytes / kShards)
{
}

TileTable::Shard &
TileTable::shardFor(const TileKey &key)
{
    size_t h = std::hash<size_t>()(std::get<0>(key)) ^
               std::hash<int>()(std::get<1>(key)) * 0x9e3779b9u;
    return shards_[h % kShards];
}

TileLookup
TileTable::lookup(const TileKey &key)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto [it, claimed] = shard.entries.try_emplace(key);
    Entry &entry = it->second;
    if (claimed) {
        entry.tile = entry.promise.get_future().share();
        return TileLookup{TileLookup::Kind::Claim, entry.tile};
    }
    if (entry.bytes == 0)
        return TileLookup{TileLookup::Kind::Join, entry.tile};
    shard.lru.splice(shard.lru.begin(), shard.lru, entry.lruPos);
    return TileLookup{TileLookup::Kind::Hit, entry.tile};
}

void
TileTable::fulfil(const TileKey &key, SharedTile tile)
{
    size_t bytes = static_cast<size_t>(tile->width()) *
                   static_cast<size_t>(tile->height()) * sizeof(float);
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    EP_ASSERT(it != shard.entries.end(), "fulfil of an unclaimed tile");
    it->second.promise.set_value(std::move(tile));
    if (bytes > shardCapacityBytes_) {
        // Larger than a whole shard: joiners hold the future, so
        // handing the tile out is all that remains to do.
        shard.entries.erase(it);
        return;
    }
    shard.lru.push_front(key);
    it->second.lruPos = shard.lru.begin();
    it->second.bytes = bytes;
    shard.sizeBytes += bytes;
    while (shard.sizeBytes > shardCapacityBytes_) {
        auto victim = shard.entries.find(shard.lru.back());
        shard.sizeBytes -= victim->second.bytes;
        shard.entries.erase(victim);
        shard.lru.pop_back();
        ++shard.evictions;
    }
}

void
TileTable::fail(const TileKey &key, std::exception_ptr error)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    EP_ASSERT(it != shard.entries.end(), "fail of an unclaimed tile");
    it->second.promise.set_exception(std::move(error));
    shard.entries.erase(it);
}

size_t
TileTable::sizeBytes() const
{
    size_t total = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.sizeBytes;
    }
    return total;
}

uint64_t
TileTable::evictions() const
{
    uint64_t total = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.evictions;
    }
    return total;
}

TileServer::TileServer(const Archive &archive,
                       const TileServerOptions &options)
    : archive_(archive), table_(options.cacheBytes), options_(options),
      latencyHist_(&telemetry::histogram("ground.serve.latency_ns"))
{
    // Baseline at construction: a fresh server's StatsView window
    // must not include queries an earlier server in this process ran.
    resetStats();
    if (options_.prefetch)
        prefetchQueue_ = std::make_unique<util::BackgroundQueue>(
            kPrefetchQueueDepth);
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
    ChainPlace place;
    TileResult result = serveImpl(query, &place);
    result.serveNs = telemetry::nowNanos() - t0;
    latencyHist_->record(result.serveNs);

    ServeMetrics &m = serveMetrics();
    m.queries.add();
    m.tilesDecoded.add(static_cast<uint64_t>(result.tilesDecoded));
    m.tilesFromCache.add(static_cast<uint64_t>(result.tilesFromCache));
    m.tilesCoalesced.add(static_cast<uint64_t>(result.tilesCoalesced));
    if (result.error == ServeError::Corrupt)
        m.corrupt.add();

    if (result.ok() && options_.prefetch)
        maybePrefetch(query, place);
    // A reduced-fidelity answer went out fast; warm the full-fidelity
    // tiles in the background so a later full-fidelity query is served
    // from the cache. A repeated reduced query is not refined: it hits
    // its own reduced-quality tiles, which are keyed apart.
    if (result.ok() && query.quality >= 0 && query.quality < 100) {
        TileQuery full = query;
        full.quality = -1;
        warmInBackground(full, "ground.refine", m.refineTasks,
                         m.refineDropped);
    }
    return result;
}

codec::EncodedImage
TileServer::parseRecord(size_t recordIdx) const
{
    telemetry::TraceSpan parseSpan("ground.payload_parse", "ground");
    telemetry::ScopedTimer timer(serveMetrics().payloadParseNs);
    PayloadView view = archive_.payloadView(recordIdx);
    codec::EncodedImage stream;
    if (codec::EncodedImage::tryDeserialize(view.data(), view.size(),
                                            stream) !=
        codec::StreamError::None)
        throw CorruptRecord();
    return stream;
}

TileResult
TileServer::serveImpl(TileQuery query, ChainPlace *chainOut)
{
    // A claim held when a parse throws is failed by serveChain() with
    // the same exception, so a query that joined it lands here too.
    try {
        return serveChain(query, chainOut);
    } catch (const CorruptRecord &) {
        TileResult result;
        result.error = ServeError::Corrupt;
        return result;
    }
}

TileResult
TileServer::serveChain(TileQuery query, ChainPlace *chainOut)
{
    TileResult result;
    if (query.validate() != ServeError::None) {
        result.error = ServeError::BadQuery;
        return result;
    }
    if (query.quality == 100)
        query.quality = -1; // the full stream either way

    std::vector<std::pair<size_t, RecordMeta>> relevant;
    double nextDay = std::numeric_limits<double>::infinity();
    {
        telemetry::ScopedTimer timer(serveMetrics().chainResolveNs);
        relevant = resolveChain(archive_, query, &nextDay);
    }
    if (chainOut) {
        chainOut->nextDay = nextDay;
        if (!relevant.empty())
            chainOut->newestDay = relevant.back().second.captureDay;
    }
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
        // serialized payload.
        codec::EncodedImage stream = parseRecord(idx);
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
        // One table lookup per tile: a ready tile is a cache hit, a
        // pending one joins the decode already running, and anything
        // else is claimed here — identical concurrent queries dedupe
        // onto one decode. Every claim lookup() hands out must end in
        // fulfil() or fail(), or the tile would be wedged for every
        // later query, so the whole lifecycle sits in one try block.
        std::vector<int> claimed;
        claimed.reserve(wanted[s].size());
        std::vector<std::pair<int, std::shared_future<SharedTile>>> joined;
        std::vector<std::pair<int, SharedTile>> tiles;
        size_t fulfilled = 0; // claimed[0..fulfilled) are published
        try {
            for (int t : wanted[s]) {
                TileLookup found =
                    table_.lookup({recordIdx, t, query.quality});
                if (found.kind == TileLookup::Kind::Hit) {
                    tiles.emplace_back(t, found.tile.get());
                    ++result.tilesFromCache;
                } else if (found.kind == TileLookup::Kind::Join) {
                    joined.emplace_back(t, std::move(found.tile));
                } else {
                    claimed.push_back(t);
                }
            }
            if (!claimed.empty()) {
                // Only a claim pays for payload mapping + stream
                // parse, and a stream already parsed for geometry
                // this query is reused.
                auto itParsed = parsedThisQuery.find(recordIdx);
                codec::EncodedImage local;
                const codec::EncodedImage *stream;
                if (itParsed != parsedThisQuery.end()) {
                    stream = &itParsed->second;
                } else {
                    local = parseRecord(recordIdx);
                    stream = &local;
                }
                serveMetrics().coalesceClaims.add(claimed.size());
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
                // A quality hint decodes at quality% of the record's
                // payload bytes (its payload view's size); decodeTiles()
                // decodes a budget below the stream's floor as the floor.
                const size_t budget = query.quality < 0
                    ? SIZE_MAX
                    : static_cast<size_t>(
                          static_cast<double>(relevant[s].second.payloadBytes) *
                          query.quality / 100.0);
                auto decoded = codec::decodeTiles(*stream, claimed, budget);
                for (size_t i = 0; i < claimed.size(); ++i) {
                    auto tile = std::make_shared<const raster::Plane>(
                        std::move(decoded[i]));
                    table_.fulfil({recordIdx, claimed[i], query.quality},
                                  tile);
                    fulfilled = i + 1;
                    tiles.emplace_back(claimed[i], std::move(tile));
                    ++result.tilesDecoded;
                }
            }
        } catch (...) {
            for (size_t i = fulfilled; i < claimed.size(); ++i)
                table_.fail({recordIdx, claimed[i], query.quality},
                            std::current_exception());
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
TileServer::maybePrefetch(const TileQuery &query, const ChainPlace &place)
{
    // A one-record forward step: this query's newest record is the one
    // the previous query of this (location, band) had next. Another
    // step likely follows, so warm the chain of the record after it —
    // exactly what a continuing sequential consumer asks for next. A
    // day jump, even a forward one, predicts nothing.
    bool step = false;
    {
        std::lock_guard<std::mutex> lock(prefetchMutex_);
        auto key = std::make_pair(query.locationId, query.band);
        auto it = lastNextDay_.find(key);
        step = it != lastNextDay_.end() && it->second == place.newestDay;
        lastNextDay_[key] = place.nextDay;
    }
    if (!step || !std::isfinite(place.nextDay))
        return;

    TileQuery ahead = query;
    ahead.day = place.nextDay;
    ServeMetrics &m = serveMetrics();
    warmInBackground(ahead, "ground.prefetch", m.prefetchTasks,
                     m.prefetchDropped);
}

void
TileServer::warmInBackground(const TileQuery &query, const char *spanName,
                             telemetry::Counter &tasks,
                             telemetry::Counter &dropped)
{
    if (!prefetchQueue_)
        return;
    // The BackgroundQueue keeps warmups off the serving threads'
    // latency path and away from the global pool.
    bool posted = prefetchQueue_->post([this, query, spanName, &tasks] {
        telemetry::TraceSpan span(spanName, "ground");
        serveImpl(query);
        tasks.add();
    });
    if (!posted)
        dropped.add();
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
    out.cacheEvictions = table_.evictions() - base.cacheEvictions;
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
    base.cacheEvictions = table_.evictions();
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

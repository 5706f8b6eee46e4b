#include "codec/codec.hh"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "util/bytes.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/telemetry.hh"

namespace earthplus::codec {

namespace {

/**
 * Codec metrics, resolved once per process. Registry entries
 * are leaked, so the references stay valid forever.
 */
struct CodecMetrics
{
    telemetry::Counter &tilesEncoded =
        telemetry::counter("codec.tiles_encoded");
    telemetry::Counter &tilesDecoded =
        telemetry::counter("codec.tiles_decoded");
    telemetry::Histogram &decodeTileNs =
        telemetry::histogram("codec.decode_tile_ns");
};

CodecMetrics &
codecMetrics()
{
    static CodecMetrics m;
    return m;
}

// The stream magic, "EPC4" (docs/ARCHITECTURE.md): row-slab entropy
// chunks whose payloads are runs of independently flushed per-plane
// segments (plus a raw maxPlane byte in layer 0), so the framing
// records truncation points. A future layout gets a new magic.
constexpr uint32_t kMagic = 0x34435045;

/** Fixed serialized header size in bytes. */
constexpr size_t kFixedHeader =
    4 +          // magic
    6 * 4 +      // width, height, tileSize, dwtLevels, layers, flags
    8 +          // quantStep
    4 +          // chunkRows
    4;           // tile count

using util::appendPod;

/** Bounds-checked cursor read: false on truncation, advances pos. */
template <typename T>
bool
tryReadPod(const uint8_t *in, size_t len, size_t &pos, T &out)
{
    if (pos + sizeof(T) > len)
        return false;
    out = util::readPodAt<T>(in, pos);
    pos += sizeof(T);
    return true;
}

/** printf-style diagnostic for the non-fatal parse path. */
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string
formatError(const char *fmt, ...)
{
    char buf[192];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

} // anonymous namespace

size_t
EncodedImage::payloadBytes() const
{
    size_t total = 0;
    for (const auto &chunk : layerChunks)
        total += chunk.size();
    return total;
}

size_t
EncodedImage::headerBytes() const
{
    // Fixed header + packed coded-tile bitmap + per-layer length
    // fields.
    return kFixedHeader + (tileCoded.size() + 7) / 8 +
           4 * layerChunks.size();
}

size_t
EncodedImage::totalBytes() const
{
    return headerBytes() + payloadBytes();
}

size_t
EncodedImage::totalBytesForLayers(int layerCount) const
{
    if (layerCount < 0 ||
        layerCount > static_cast<int>(layerChunks.size()))
        layerCount = static_cast<int>(layerChunks.size());
    size_t total = kFixedHeader + (tileCoded.size() + 7) / 8 +
                   4 * static_cast<size_t>(layerCount);
    for (int l = 0; l < layerCount; ++l)
        total += layerChunks[static_cast<size_t>(l)].size();
    return total;
}

double
EncodedImage::codedTileFraction() const
{
    if (tileCoded.empty())
        return 0.0;
    size_t set = 0;
    for (uint8_t f : tileCoded)
        set += f;
    return static_cast<double>(set) /
           static_cast<double>(tileCoded.size());
}

std::vector<uint8_t>
EncodedImage::serialize() const
{
    std::vector<uint8_t> out;
    EP_ASSERT(!truncated, "cannot re-serialize a truncated stream");
    out.reserve(totalBytes());
    appendPod(out, kMagic);
    appendPod(out, static_cast<uint32_t>(width));
    appendPod(out, static_cast<uint32_t>(height));
    appendPod(out, static_cast<uint32_t>(tileSize));
    appendPod(out, static_cast<uint32_t>(dwtLevels));
    appendPod(out, static_cast<uint32_t>(layers));
    uint32_t flags = (wavelet == Wavelet::LeGall53 ? 1u : 0u) |
                     (lossless ? 2u : 0u) |
                     (static_cast<uint32_t>(losslessDepth) << 8);
    appendPod(out, flags);
    appendPod(out, quantStep);
    appendPod(out, static_cast<uint32_t>(chunkRows));
    appendPod(out, static_cast<uint32_t>(tileCoded.size()));
    // Packed coded-tile bitmap.
    for (size_t i = 0; i < tileCoded.size(); i += 8) {
        uint8_t b = 0;
        for (size_t j = 0; j < 8 && i + j < tileCoded.size(); ++j)
            b |= static_cast<uint8_t>((tileCoded[i + j] ? 1 : 0) << j);
        out.push_back(b);
    }
    for (const auto &chunk : layerChunks) {
        appendPod(out, static_cast<uint32_t>(chunk.size()));
        out.insert(out.end(), chunk.begin(), chunk.end());
    }
    return out;
}

EncodedImage
EncodedImage::deserialize(const std::vector<uint8_t> &bytes)
{
    return deserialize(bytes.data(), bytes.size());
}

namespace {

/**
 * Parse and validate the fixed header and coded-tile bitmap into `e`.
 * Every field is validated before use: a truncated or corrupt header
 * produces a typed error (with the diagnostic deserialize() dies with
 * in `msg`) instead of out-of-bounds reads or absurd allocations.
 * `floor` receives the offset just past the bitmap, `nCoded` the
 * number of coded tiles.
 */
StreamError
parseHeader(const uint8_t *data, size_t len, EncodedImage &e,
            size_t &floor, size_t &nCoded, std::string &msg)
{
    constexpr uint32_t kMaxDim = 1u << 20;      // 1M pixels per edge
    constexpr uint64_t kMaxPixels = 1ull << 28; // ~1 GB decoded plane
    constexpr uint32_t kMaxLayers = 1u << 16;

    auto cut = [&msg] {
        msg = "encoded image stream truncated";
        return StreamError::Truncated;
    };

    size_t pos = 0;
    uint32_t magic = 0;
    if (!tryReadPod(data, len, pos, magic))
        return cut();
    if (magic != kMagic) {
        msg = "bad encoded-image magic";
        return StreamError::Corrupt;
    }
    uint32_t width = 0;
    uint32_t height = 0;
    uint32_t tileSize = 0;
    uint32_t dwtLevels = 0;
    uint32_t layers = 0;
    if (!tryReadPod(data, len, pos, width) ||
        !tryReadPod(data, len, pos, height) ||
        !tryReadPod(data, len, pos, tileSize) ||
        !tryReadPod(data, len, pos, dwtLevels) ||
        !tryReadPod(data, len, pos, layers))
        return cut();
    if (width == 0 || width > kMaxDim || height == 0 ||
        height > kMaxDim) {
        msg = formatError("encoded image has invalid dimensions %ux%u",
                          width, height);
        return StreamError::Corrupt;
    }
    if (static_cast<uint64_t>(width) * height > kMaxPixels) {
        msg = formatError(
            "encoded image dimensions %ux%u exceed the %llu-pixel cap",
            width, height, static_cast<unsigned long long>(kMaxPixels));
        return StreamError::Corrupt;
    }
    if (tileSize == 0 || tileSize > kMaxDim) {
        msg = formatError("encoded image has invalid tile size %u",
                          tileSize);
        return StreamError::Corrupt;
    }
    if (dwtLevels > 30) {
        msg = formatError(
            "encoded image has invalid DWT level count %u", dwtLevels);
        return StreamError::Corrupt;
    }
    if (layers == 0 || layers > kMaxLayers) {
        msg = formatError("encoded image has invalid layer count %u",
                          layers);
        return StreamError::Corrupt;
    }
    e.width = static_cast<int>(width);
    e.height = static_cast<int>(height);
    e.tileSize = static_cast<int>(tileSize);
    e.dwtLevels = static_cast<int>(dwtLevels);
    e.layers = static_cast<int>(layers);
    uint32_t flags = 0;
    if (!tryReadPod(data, len, pos, flags))
        return cut();
    e.wavelet = (flags & 1u) ? Wavelet::LeGall53 : Wavelet::CDF97;
    e.lossless = (flags & 2u) != 0;
    e.losslessDepth = static_cast<int>((flags >> 8) & 0xFFu);
    if (e.lossless &&
        (e.losslessDepth < 1 || e.losslessDepth > 16 ||
         e.wavelet != Wavelet::LeGall53)) {
        msg = formatError(
            "encoded image has invalid lossless flags 0x%x", flags);
        return StreamError::Corrupt;
    }
    if (!tryReadPod(data, len, pos, e.quantStep))
        return cut();
    if (!std::isfinite(e.quantStep) || e.quantStep <= 0.0) {
        msg = "encoded image has invalid quantizer step";
        return StreamError::Corrupt;
    }
    uint32_t chunkRows = 0;
    if (!tryReadPod(data, len, pos, chunkRows))
        return cut();
    if (chunkRows == 0 || chunkRows > kMaxDim) {
        msg = formatError("encoded image has invalid chunk height %u",
                          chunkRows);
        return StreamError::Corrupt;
    }
    e.chunkRows = static_cast<int>(chunkRows);
    uint32_t tiles = 0;
    if (!tryReadPod(data, len, pos, tiles))
        return cut();
    uint64_t tilesX = (width + tileSize - 1) / tileSize;
    uint64_t tilesY = (height + tileSize - 1) / tileSize;
    if (tiles != tilesX * tilesY) {
        msg = formatError(
            "encoded image tile count %u does not match its "
            "%ux%u/%u grid (%llu tiles)",
            tiles, width, height, tileSize,
            static_cast<unsigned long long>(tilesX * tilesY));
        return StreamError::Corrupt;
    }
    // Bounds-check the packed bitmap BEFORE sizing tileCoded, so a
    // corrupt tile count cannot drive a huge allocation.
    size_t packed = (static_cast<size_t>(tiles) + 7) / 8;
    if (packed > len - pos) {
        msg = "encoded image stream truncated in tile bitmap";
        return StreamError::Truncated;
    }
    e.tileCoded.resize(tiles);
    nCoded = 0;
    for (size_t i = 0; i < tiles; ++i) {
        e.tileCoded[i] = (data[pos + i / 8] >> (i % 8)) & 1u;
        nCoded += e.tileCoded[i];
    }
    floor = pos + packed;
    return StreamError::None;
}

/** How walkStream() ended. */
enum class WalkEnd
{
    Complete, ///< Every declared layer is present and well framed.
    Cut,      ///< The bytes ran out first (see StreamWalk::onPoint).
    Corrupt,  ///< A length word overruns its enclosing structure.
    Stopped,  ///< The point visitor ended the walk.
};

/** What walkStream() found. */
struct StreamWalk
{
    /** Header verdict; the walk below the header ran only on None. */
    StreamError header = StreamError::None;
    /** Offset just past the coded-tile bitmap. */
    size_t floor = 0;
    WalkEnd end = WalkEnd::Complete;
    /** Offset where the walk ended. */
    size_t at = 0;
    /** A Cut walk ended on a recorded truncation point. */
    bool onPoint = false;
    /** Payload of every layer reached; the last one may be partial. */
    std::vector<ChunkSpan> layers;
};

/**
 * The one walker of the stream container grammar (docs/ARCHITECTURE.md)
 * behind parseStream(), truncationPoints() and truncateStream();
 * streamHeaderFloor() needs only its first stage, parseHeader().
 * It walks the header, then layer -> tile sub-chunk -> entropy
 * chunk -> segment, as far as the bytes allow. Every length word must
 * fit inside the structure that encloses it, so a walk that does not
 * end Corrupt leaves the stream framed consistently down to the
 * segment level. `visit(offset)` sees every recorded truncation point
 * in ascending order and returns false to stop the walk; a Cut lands
 * on a recorded point exactly when the last point visited is the end
 * of the bytes.
 */
template <typename Visit>
StreamWalk
walkStream(const uint8_t *data, size_t len, EncodedImage &head,
           std::string &msg, Visit &&visit)
{
    StreamWalk w;
    size_t nCoded = 0;
    w.header = parseHeader(data, len, head, w.floor, nCoded, msg);
    if (w.header != StreamError::None)
        return w;
    size_t pos = w.floor;
    size_t lastPoint = SIZE_MAX;
    auto finish = [&](WalkEnd end) {
        w.end = end;
        w.at = pos;
        w.onPoint = end == WalkEnd::Cut && lastPoint == len;
        return false;
    };
    auto point = [&] {
        lastPoint = pos;
        return visit(pos) || finish(WalkEnd::Stopped);
    };
    // `n` more bytes inside a structure that ends at `end`.
    auto need = [&](size_t n, size_t end) {
        if (n > end - pos)
            return finish(WalkEnd::Corrupt);
        return n <= len - pos || finish(WalkEnd::Cut);
    };
    // A u32 length word framing `word >> shift` bytes inside `end`;
    // `bodyEnd` receives the end of the framed body.
    auto frame = [&](size_t end, int shift, size_t &bodyEnd) {
        if (!need(4, end))
            return false;
        size_t n = util::readPodAt<uint32_t>(data, pos) >> shift;
        pos += 4;
        bodyEnd = pos + n;
        return n <= end - pos || finish(WalkEnd::Corrupt);
    };
    auto skipTo = [&](size_t to) {
        if (!need(to - pos, to))
            return false;
        pos = to;
        return true;
    };

    if (!point())
        return w;
    for (int l = 0; l < head.layers; ++l) {
        size_t layerEnd = 0;
        if (!frame(SIZE_MAX, 0, layerEnd))
            return w;
        w.layers.push_back({data + pos, std::min(layerEnd, len) - pos});
        if (!point())
            return w;
        for (size_t t = 0; t < nCoded; ++t) {
            size_t subEnd = 0;
            if (!frame(layerEnd, 0, subEnd) || !point())
                return w;
            while (pos < subEnd) {
                size_t chunkEnd = 0;
                if (!frame(subEnd, 0, chunkEnd) || !point())
                    return w;
                // Layer 0 leads each chunk with its raw maxPlane byte.
                if (l == 0 && pos < chunkEnd &&
                    (!skipTo(pos + 1) || !point()))
                    return w;
                while (pos < chunkEnd) {
                    size_t segEnd = 0;
                    if (!frame(chunkEnd, 2, segEnd) || !skipTo(segEnd) ||
                        !point())
                        return w;
                }
            }
        }
        if (pos != layerEnd) {
            finish(WalkEnd::Corrupt);
            return w;
        }
    }
    w.at = pos;
    return w;
}

/**
 * The shared parse behind deserialize()/tryDeserialize(): a stream cut
 * at a recorded truncation point parses with `e.truncated` set, any
 * other cut is StreamError::Truncated.
 */
StreamError
parseStream(const uint8_t *data, size_t len, EncodedImage &e,
            std::string &msg)
{
    StreamWalk w =
        walkStream(data, len, e, msg, [](size_t) { return true; });
    if (w.header != StreamError::None)
        return w.header;
    if (w.end == WalkEnd::Corrupt) {
        msg = formatError("encoded image layer %zu is mis-framed at byte "
                          "%zu", w.layers.size() - 1, w.at);
        return StreamError::Corrupt;
    }
    if (w.end == WalkEnd::Cut && !w.onPoint) {
        msg = formatError("encoded image stream truncated at byte %zu, "
                          "which is not a recorded truncation point",
                          len);
        return StreamError::Truncated;
    }
    e.truncated = w.end == WalkEnd::Cut;
    for (const ChunkSpan &layer : w.layers)
        e.layerChunks.emplace_back(layer.data, layer.data + layer.size);
    return StreamError::None;
}

/**
 * Walk a stream that parses — complete, or cut at a recorded
 * truncation point — for truncationPoints() and truncateStream();
 * fatal() on anything else.
 */
template <typename Visit>
void
walkParsedStream(const uint8_t *data, size_t len, Visit &&visit)
{
    EncodedImage head;
    std::string msg;
    StreamWalk w = walkStream(data, len, head, msg, visit);
    if (w.header != StreamError::None)
        fatal("%s", msg.c_str());
    if ((w.end == WalkEnd::Cut && !w.onPoint) || w.end == WalkEnd::Corrupt)
        fatal("corrupt encoded-image stream at offset %zu", w.at);
}

} // anonymous namespace

EncodedImage
EncodedImage::deserialize(const uint8_t *data, size_t len)
{
    EncodedImage e;
    std::string msg;
    if (parseStream(data, len, e, msg) != StreamError::None)
        fatal("%s", msg.c_str());
    return e;
}

StreamError
EncodedImage::tryDeserialize(const uint8_t *data, size_t len,
                             EncodedImage &out, std::string *message)
{
    EncodedImage e;
    std::string msg;
    StreamError err = parseStream(data, len, e, msg);
    if (err == StreamError::None)
        out = std::move(e);
    else if (message)
        *message = std::move(msg);
    return err;
}

size_t
streamHeaderFloor(const uint8_t *data, size_t len)
{
    EncodedImage head;
    std::string msg;
    size_t floor = 0;
    size_t nCoded = 0;
    if (parseHeader(data, len, head, floor, nCoded, msg) !=
        StreamError::None)
        fatal("%s", msg.c_str());
    return floor;
}

size_t
streamHeaderFloor(const std::vector<uint8_t> &bytes)
{
    return streamHeaderFloor(bytes.data(), bytes.size());
}

std::vector<size_t>
truncationPoints(const uint8_t *data, size_t len)
{
    std::vector<size_t> points;
    walkParsedStream(data, len, [&](size_t off) {
        points.push_back(off);
        return true;
    });
    return points;
}

std::vector<size_t>
truncationPoints(const std::vector<uint8_t> &bytes)
{
    return truncationPoints(bytes.data(), bytes.size());
}

std::vector<uint8_t>
truncateStream(const uint8_t *data, size_t len, size_t budget)
{
    size_t best = 0;
    bool any = false;
    walkParsedStream(data, len, [&](size_t off) {
        if (off > budget)
            return false;
        best = off;
        any = true;
        return true;
    });
    EP_ASSERT(any, "budget %zu below the stream header floor", budget);
    return std::vector<uint8_t>(data, data + (budget >= len ? len : best));
}

std::vector<uint8_t>
truncateStream(const std::vector<uint8_t> &bytes, size_t budget)
{
    return truncateStream(bytes.data(), bytes.size(), budget);
}

EncodedImage
encode(const raster::Plane &img, const EncodeParams &params,
       raster::Plane *reconstruction)
{
    telemetry::TraceSpan encodeSpan("codec.encode", "codec");
    EP_ASSERT(params.layers >= 1, "need at least one quality layer");
    EP_ASSERT(params.chunkRows > 0,
              "EPC4 streams need a positive chunk height, not %d",
              params.chunkRows);
    EP_ASSERT(params.bitsPerPixel > 0.0 || params.lossless,
              "non-positive bit budget");
    EP_ASSERT(!params.lossless || params.wavelet == Wavelet::LeGall53,
              "lossless coding requires the LeGall 5/3 wavelet");

    raster::TileGrid grid(img.width(), img.height(), params.tileSize);
    if (params.roi) {
        EP_ASSERT(params.roi->tilesX() == grid.tilesX() &&
                  params.roi->tilesY() == grid.tilesY(),
                  "ROI mask (%dx%d tiles) does not match grid (%dx%d)",
                  params.roi->tilesX(), params.roi->tilesY(),
                  grid.tilesX(), grid.tilesY());
    }

    EncodedImage out;
    out.width = img.width();
    out.height = img.height();
    out.tileSize = params.tileSize;
    out.dwtLevels = params.dwtLevels;
    out.layers = params.layers;
    out.wavelet = params.wavelet;
    out.lossless = params.lossless;
    out.losslessDepth = params.losslessDepth;
    out.quantStep = params.quantStep;
    out.chunkRows = params.chunkRows;
    out.tileCoded.assign(static_cast<size_t>(grid.tileCount()), 0);
    if (reconstruction)
        *reconstruction = raster::Plane(img.width(), img.height(), 0.0f);

    TileCoderParams tp;
    tp.dwtLevels = params.dwtLevels;
    tp.wavelet = params.wavelet;
    tp.lossless = params.lossless;
    tp.losslessDepth = params.losslessDepth;
    tp.quantStep = params.quantStep;
    tp.chunkRows = params.chunkRows;

    std::vector<int> codedTiles;
    for (int t = 0; t < grid.tileCount(); ++t) {
        if (params.roi && !params.roi->get(t))
            continue;
        out.tileCoded[static_cast<size_t>(t)] = 1;
        codedTiles.push_back(t);
    }

    out.layerChunks.assign(static_cast<size_t>(params.layers), {});
    const int layers = params.layers;

    auto budgetFor = [&](const raster::TileRect &r) {
        size_t pixels = static_cast<size_t>(r.width) *
                        static_cast<size_t>(r.height);
        return params.lossless
            ? SIZE_MAX / 2
            : static_cast<size_t>(params.bitsPerPixel *
                                  static_cast<double>(pixels) / 8.0);
    };

    // One job per coded tile: the tile's DWT, chunk entropy coding
    // and (when asked) reconstruction all run inside encodeTileLayers,
    // and tiles own disjoint rectangles, so concurrent pastes never
    // touch the same pixel. Sub-chunks are appended in flat tile-index
    // order, so the stream is byte-identical at every thread count.
    util::orderedReduce(
        codedTiles.size(),
        [&](size_t i) {
            raster::TileRect r = grid.rect(codedTiles[i]);
            raster::Plane tile = img.crop(r.x0, r.y0, r.width, r.height);
            raster::Plane decoded;
            auto tileLayers =
                encodeTileLayers(tile, tp, layers, budgetFor(r),
                                 reconstruction ? &decoded : nullptr);
            if (reconstruction)
                reconstruction->paste(decoded, r.x0, r.y0);
            return tileLayers;
        },
        [&](size_t, std::vector<std::vector<uint8_t>> tileLayers) {
            codecMetrics().tilesEncoded.add();
            for (int l = 0; l < layers; ++l) {
                const auto &sub = tileLayers[static_cast<size_t>(l)];
                auto &chunk = out.layerChunks[static_cast<size_t>(l)];
                appendPod(chunk, static_cast<uint32_t>(sub.size()));
                chunk.insert(chunk.end(), sub.begin(), sub.end());
            }
        });
    return out;
}

namespace {

/** Per-tile sub-chunk spans of a stream, sliced and validated. */
struct SlicedStream
{
    TileCoderParams tp;
    int maxLayers = 0;
    /** Flat indices of coded tiles, ascending. */
    std::vector<int> codedTiles;
    /** tile index -> slot in codedTiles/spans, or -1 when not coded. */
    std::vector<int> slotOfTile;
    /** spans[slot][layer]. */
    std::vector<std::vector<ChunkSpan>> spans;
};

/**
 * Slice each layer chunk into per-tile sub-chunk spans (forEachFramed:
 * in a layer cut short, the tiles that never arrived keep empty spans
 * and reconstruct from earlier layers, or as zeros). The spans point
 * into `e`'s chunk storage, so the stream must outlive the returned
 * view.
 */
SlicedStream
sliceStream(const EncodedImage &e, const raster::TileGrid &grid,
            int maxLayers)
{
    EP_ASSERT(static_cast<int>(e.tileCoded.size()) == grid.tileCount(),
              "coded-tile flags (%zu) do not match grid (%d)",
              e.tileCoded.size(), grid.tileCount());
    SlicedStream s;
    if (maxLayers < 0 || maxLayers > static_cast<int>(e.layerChunks.size()))
        maxLayers = static_cast<int>(e.layerChunks.size());
    s.maxLayers = maxLayers;
    s.tp.dwtLevels = e.dwtLevels;
    s.tp.wavelet = e.wavelet;
    s.tp.lossless = e.lossless;
    s.tp.losslessDepth = e.losslessDepth;
    s.tp.quantStep = e.quantStep;
    s.tp.chunkRows = e.chunkRows;

    s.slotOfTile.assign(static_cast<size_t>(grid.tileCount()), -1);
    for (int t = 0; t < grid.tileCount(); ++t) {
        if (!e.tileCoded[static_cast<size_t>(t)])
            continue;
        s.slotOfTile[static_cast<size_t>(t)] =
            static_cast<int>(s.codedTiles.size());
        s.codedTiles.push_back(t);
    }

    s.spans.assign(s.codedTiles.size(),
                   std::vector<ChunkSpan>(static_cast<size_t>(maxLayers)));
    for (int layer = 0; layer < maxLayers; ++layer) {
        const auto &chunk = e.layerChunks[static_cast<size_t>(layer)];
        forEachFramed(chunk.data(), chunk.size(), s.codedTiles.size(),
                      [&](size_t slot, ChunkSpan span) {
                          s.spans[slot][static_cast<size_t>(layer)] = span;
                      });
    }
    return s;
}

} // anonymous namespace

raster::Plane
decode(const EncodedImage &e, int maxLayers)
{
    telemetry::TraceSpan decodeSpan("codec.decode", "codec");
    raster::TileGrid grid(e.width, e.height, e.tileSize);
    SlicedStream s = sliceStream(e, grid, maxLayers);

    // Tiles decode in parallel: their pixel rectangles are disjoint,
    // so concurrent pastes never touch the same pixel.
    raster::Plane out(e.width, e.height, 0.0f);
    util::ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(s.codedTiles.size()), [&](int64_t slot) {
            telemetry::TraceSpan span("codec.decode_tile", "codec");
            telemetry::ScopedTimer timer(codecMetrics().decodeTileNs);
            codecMetrics().tilesDecoded.add();
            raster::TileRect r =
                grid.rect(s.codedTiles[static_cast<size_t>(slot)]);
            out.paste(decodeTileLayers(r.width, r.height, s.tp,
                                       s.spans[static_cast<size_t>(slot)]),
                      r.x0, r.y0);
        });
    return out;
}

std::vector<raster::Plane>
decodeTiles(const EncodedImage &e, const std::vector<int> &tiles,
            int maxLayers)
{
    raster::TileGrid grid(e.width, e.height, e.tileSize);
    for (int t : tiles)
        EP_ASSERT(t >= 0 && t < grid.tileCount(),
                  "tile index %d outside grid of %d tiles", t,
                  grid.tileCount());
    SlicedStream s = sliceStream(e, grid, maxLayers);

    return util::parallelMap(tiles.size(), [&](size_t i) {
        telemetry::TraceSpan span("codec.decode_tile", "codec");
        int t = tiles[i];
        raster::TileRect r = grid.rect(t);
        int slot = s.slotOfTile[static_cast<size_t>(t)];
        if (slot < 0)
            return raster::Plane(r.width, r.height, 0.0f);
        telemetry::ScopedTimer timer(codecMetrics().decodeTileNs);
        codecMetrics().tilesDecoded.add();
        return decodeTileLayers(r.width, r.height, s.tp,
                                s.spans[static_cast<size_t>(slot)]);
    });
}

} // namespace earthplus::codec

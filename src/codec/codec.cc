#include "codec/codec.hh"

#include <algorithm>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <numeric>

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

// The stream magic, "EPC5" (docs/ARCHITECTURE.md): one entropy chunk
// per tile, whose payload is a raw maxPlane byte and a run of
// independently flushed per-plane segments, so truncateStream() can
// drop trailing segments and re-frame; cleanup zero runs code one
// decision each. A future layout or grammar gets a new magic.
constexpr uint32_t kMagic = 0x35435045;

/**
 * The one valid header flags word, a fixed literal. Its value is
 * historical: bits 8..15 once held the pixel bit depth of a retired
 * reversible 5/3 mode, which also set bits 0 and 1. Parsing rejects
 * every other word.
 */
constexpr uint32_t kFlags = 0x800;

/** Fixed serialized header size in bytes. */
constexpr size_t kFixedHeader =
    4 +          // magic
    6 * 4 +      // width, height, tileSize, dwtLevels, layers (= 1), flags
    8 +          // quantStep
    4 +          // chunkRows (= kMaxTileSize)
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
    return payload.size();
}

size_t
EncodedImage::headerBytes() const
{
    // Fixed header + packed coded-tile bitmap + the payload's length
    // word.
    return kFixedHeader + (tileCoded.size() + 7) / 8 + 4;
}

size_t
EncodedImage::totalBytes() const
{
    return headerBytes() + payloadBytes();
}

std::vector<uint8_t>
EncodedImage::serialize() const
{
    std::vector<uint8_t> out;
    out.reserve(totalBytes());
    appendPod(out, kMagic);
    appendPod(out, static_cast<uint32_t>(width));
    appendPod(out, static_cast<uint32_t>(height));
    appendPod(out, static_cast<uint32_t>(tileSize));
    appendPod(out, static_cast<uint32_t>(dwtLevels));
    appendPod(out, static_cast<uint32_t>(1)); // layers
    appendPod(out, kFlags);
    appendPod(out, kQuantStep);
    appendPod(out, static_cast<uint32_t>(kMaxTileSize)); // chunk height
    appendPod(out, static_cast<uint32_t>(tileCoded.size()));
    // Packed coded-tile bitmap.
    for (size_t i = 0; i < tileCoded.size(); i += 8) {
        uint8_t b = 0;
        for (size_t j = 0; j < 8 && i + j < tileCoded.size(); ++j)
            b |= static_cast<uint8_t>((tileCoded[i + j] ? 1 : 0) << j);
        out.push_back(b);
    }
    appendPod(out, static_cast<uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
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
    if (tileSize == 0 || tileSize > kMaxTileSize) {
        msg = formatError("encoded image has invalid tile size %u",
                          tileSize);
        return StreamError::Corrupt;
    }
    if (dwtLevels > 30) {
        msg = formatError(
            "encoded image has invalid DWT level count %u", dwtLevels);
        return StreamError::Corrupt;
    }
    if (layers != 1) {
        msg = formatError("encoded image has layer count %u, not 1",
                          layers);
        return StreamError::Corrupt;
    }
    e.width = static_cast<int>(width);
    e.height = static_cast<int>(height);
    e.tileSize = static_cast<int>(tileSize);
    e.dwtLevels = static_cast<int>(dwtLevels);
    uint32_t flags = 0;
    if (!tryReadPod(data, len, pos, flags))
        return cut();
    if (flags != kFlags) {
        msg = formatError("encoded image has invalid flags 0x%x", flags);
        return StreamError::Corrupt;
    }
    double quantStep = 0.0;
    if (!tryReadPod(data, len, pos, quantStep))
        return cut();
    if (quantStep != kQuantStep) {
        msg = "encoded image has invalid quantizer step";
        return StreamError::Corrupt;
    }
    uint32_t chunkHeight = 0;
    if (!tryReadPod(data, len, pos, chunkHeight))
        return cut();
    if (chunkHeight != kMaxTileSize) {
        msg = formatError("encoded image has chunk height %u, not %d",
                          chunkHeight, kMaxTileSize);
        return StreamError::Corrupt;
    }
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

/** How a walk of the stream grammar ended. */
enum class WalkEnd
{
    Complete, ///< The walked structure is present and well framed.
    Short,    ///< The bytes ran out inside the framing.
    Corrupt,  ///< A length word overruns its enclosing structure.
};

/**
 * Where a stream's entropy chunks and segments sit — what the cutter
 * re-frames and what every decode reads.
 */
struct StreamLayout
{
    /** One coded tile's entropy chunk, in stream order. */
    struct Chunk
    {
        size_t body;         ///< Offset just past its ecLen word.
        size_t head;         ///< Plane bytes at `body` (0 or 1).
        size_t firstSegment; ///< Index of its first segment.
        size_t segmentCount;
    };
    /** One segment, in stream order. */
    struct Segment
    {
        int plane;    ///< Bitplane coded: maxPlane - (index in chunk).
        int passes;   ///< Coding passes it holds (1..3).
        size_t end;   ///< Offset just past its body.
        size_t bytes; ///< segWord + body.
    };
    /** Offset just past the coded-tile bitmap (whole streams only). */
    size_t headerEnd = 0;
    std::vector<Chunk> chunks;
    std::vector<Segment> segments;
};

/**
 * A bounded cursor over `len` bytes and the framing steps of the
 * grammar: every length word must fit inside the structure that
 * encloses it. A step that fails records how the walk ended in `end`
 * and returns false, leaving `pos` where the walk stopped.
 */
struct Cursor
{
    const uint8_t *data;
    size_t len;
    size_t pos = 0;
    WalkEnd end = WalkEnd::Complete;

    bool
    stop(WalkEnd why)
    {
        end = why;
        return false;
    }

    /** `n` more bytes inside a structure that ends at `limit`. */
    bool
    need(size_t n, size_t limit)
    {
        if (n > limit - pos)
            return stop(WalkEnd::Corrupt);
        return n <= len - pos || stop(WalkEnd::Short);
    }

    /**
     * A u32 length word framing `word >> shift` bytes inside `limit`;
     * `bodyEnd` receives the end of the framed body.
     */
    bool
    frame(size_t limit, int shift, size_t &bodyEnd)
    {
        if (!need(4, limit))
            return false;
        size_t n = util::readPodAt<uint32_t>(data, pos) >> shift;
        pos += 4;
        bodyEnd = pos + n;
        return n <= limit - pos || stop(WalkEnd::Corrupt);
    }
};

/**
 * The per-chunk half of the one walker of the stream grammar
 * (docs/ARCHITECTURE.md): one `u32 ecLen | chunk` entropy chunk at
 * `c.pos` that must fill the structure ending at `limit`, and its
 * segments. When `layout` is non-null it receives the chunk and every
 * complete segment walked, at offsets into `c.data`. True when the
 * whole chunk was walked.
 */
bool
walkChunk(Cursor &c, size_t limit, StreamLayout *layout)
{
    size_t chunkEnd = 0;
    if (!c.frame(limit, 0, chunkEnd))
        return false;
    if (chunkEnd != limit)
        return c.stop(WalkEnd::Corrupt);
    // The chunk leads with its raw maxPlane + 1 byte.
    int maxPlane = -1;
    size_t headBytes = 0;
    if (c.pos < chunkEnd) {
        if (!c.need(1, chunkEnd))
            return false;
        maxPlane = static_cast<int>(c.data[c.pos]) - 1;
        headBytes = 1;
    }
    if (layout)
        layout->chunks.push_back(
            {c.pos, headBytes, layout->segments.size(), 0});
    c.pos += headBytes;
    // Each segment is `u32 segWord | body`, segWord = body length << 2
    // | (passes - 1).
    for (int plane = maxPlane; c.pos < chunkEnd; --plane) {
        const size_t segStart = c.pos;
        size_t segEnd = 0;
        if (!c.frame(chunkEnd, 2, segEnd) || !c.need(segEnd - c.pos, segEnd))
            return false;
        c.pos = segEnd;
        if (layout) {
            const int passes = static_cast<int>(
                util::readPodAt<uint32_t>(c.data, segStart) & 3u) + 1;
            layout->segments.push_back(
                {plane, passes, segEnd, segEnd - segStart});
            ++layout->chunks.back().segmentCount;
        }
    }
    return true;
}

/**
 * Walk `count` tile sub-chunks from `c.pos`, inside a structure ending
 * at `limit`: each is `u32 subLen` around exactly one entropy chunk
 * (walkChunk()). True when all `count` were walked.
 */
bool
walkTiles(Cursor &c, size_t limit, size_t count, StreamLayout *layout)
{
    for (size_t t = 0; t < count; ++t) {
        size_t subEnd = 0;
        if (!c.frame(limit, 0, subEnd) || !walkChunk(c, subEnd, layout))
            return false;
    }
    return true;
}

/** What walkStream() found. */
struct StreamWalk
{
    /** Header verdict; the walk below the header ran only on None. */
    StreamError header = StreamError::None;
    WalkEnd end = WalkEnd::Complete;
    /** Offset where the walk ended. */
    size_t at = 0;
    /** The payload chunk, once the walk is Complete. */
    ChunkSpan payload;
};

/**
 * The one walker of the stream container grammar, behind
 * parseStream(), streamHeaderFloor() and truncateStream(); every
 * decode walks a parsed payload with its tile half, walkTiles(), and
 * decodeTile() a lone sub-chunk with its per-chunk half, walkChunk().
 * It walks the header, then payload -> tile sub-chunk -> entropy chunk
 * -> segment, as far as the bytes allow, so a walk that ends Complete
 * leaves the stream framed consistently down to the segment level.
 * When `layout` is non-null it receives every entropy chunk and
 * segment.
 */
StreamWalk
walkStream(const uint8_t *data, size_t len, EncodedImage &head,
           std::string &msg, StreamLayout *layout)
{
    StreamWalk w;
    size_t floor = 0;
    size_t nCoded = 0;
    w.header = parseHeader(data, len, head, floor, nCoded, msg);
    if (w.header != StreamError::None)
        return w;
    if (layout)
        layout->headerEnd = floor;
    Cursor c{data, len, floor};
    size_t payloadEnd = 0;
    if (c.frame(SIZE_MAX, 0, payloadEnd) &&
        walkTiles(c, payloadEnd, nCoded, layout) && c.pos != payloadEnd)
        c.stop(WalkEnd::Corrupt);
    w.end = c.end;
    w.at = c.pos;
    if (w.end == WalkEnd::Complete)
        w.payload = {data + floor + 4, payloadEnd - floor - 4};
    return w;
}

/** The shared parse behind deserialize()/tryDeserialize(). */
StreamError
parseStream(const uint8_t *data, size_t len, EncodedImage &e,
            std::string &msg)
{
    StreamWalk w = walkStream(data, len, e, msg, nullptr);
    if (w.header != StreamError::None)
        return w.header;
    if (w.end == WalkEnd::Corrupt) {
        msg = formatError("encoded image payload is mis-framed at byte "
                          "%zu", w.at);
        return StreamError::Corrupt;
    }
    if (w.end == WalkEnd::Short) {
        msg = formatError("encoded image stream truncated at byte %zu",
                          len);
        return StreamError::Truncated;
    }
    if (w.at != len) {
        msg = formatError("encoded image stream is followed by %zu "
                          "trailing bytes", len - w.at);
        return StreamError::Corrupt;
    }
    e.payload.assign(w.payload.data, w.payload.data + w.payload.size);
    return StreamError::None;
}

/** Bytes of every segment of `layout`: all that a cut can drop. */
size_t
segmentBytes(const StreamLayout &layout)
{
    size_t bytes = 0;
    for (const StreamLayout::Segment &seg : layout.segments)
        bytes += seg.bytes;
    return bytes;
}

/**
 * Lay out a stream that parses for streamHeaderFloor() and
 * truncateStream(), and return the cutter's floor: the stream's framed
 * size with every segment removed. fatal() on a stream that does not
 * parse, trailing bytes included.
 */
size_t
layoutStream(const uint8_t *data, size_t len, StreamLayout &layout)
{
    EncodedImage head;
    std::string msg;
    StreamWalk w = walkStream(data, len, head, msg, &layout);
    if (w.header != StreamError::None)
        fatal("%s", msg.c_str());
    if (w.end != WalkEnd::Complete)
        fatal("corrupt encoded-image stream at offset %zu", w.at);
    if (w.at != len)
        fatal("encoded-image stream is followed by %zu trailing bytes",
              len - w.at);
    return w.at - segmentBytes(layout);
}

/**
 * The one keep rule of a cut: how many leading segments each chunk of
 * `layout` keeps when a stream whose floor is `floor` bytes is cut to
 * `budget` bytes. Whole planes are kept, highest first, while they
 * fit; the first plane that does not fit (T - 1) admits its segments
 * smallest first (ties in stream order), up to the first one that does
 * not fit. The kept segments of a chunk are therefore a leading run. A
 * budget below the floor keeps no segment; one the whole stream fits
 * keeps every segment.
 */
std::vector<size_t>
keptSegments(const StreamLayout &layout, size_t floor, size_t budget)
{
    const std::vector<StreamLayout::Chunk> &chunks = layout.chunks;
    const std::vector<StreamLayout::Segment> &segs = layout.segments;
    std::vector<size_t> kept(chunks.size(), 0);
    if (budget >= floor && budget - floor >= segmentBytes(layout)) {
        for (size_t c = 0; c < chunks.size(); ++c)
            kept[c] = chunks[c].segmentCount;
        return kept;
    }

    // Segments by plane, highest first, each plane in stream order.
    std::vector<size_t> order(segs.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return segs[a].plane > segs[b].plane;
    });
    std::vector<uint8_t> keep(segs.size(), 0);
    size_t size = floor;
    for (size_t i = 0; i < order.size();) {
        size_t j = i;
        size_t planeBytes = 0;
        for (; j < order.size() && segs[order[j]].plane == segs[order[i]].plane;
             ++j)
            planeBytes += segs[order[j]].bytes;
        if (size + planeBytes > budget) {
            std::sort(order.begin() + static_cast<ptrdiff_t>(i),
                      order.begin() + static_cast<ptrdiff_t>(j),
                      [&](size_t a, size_t b) {
                          return segs[a].bytes != segs[b].bytes
                              ? segs[a].bytes < segs[b].bytes
                              : a < b;
                      });
            for (; i < j && size + segs[order[i]].bytes <= budget; ++i) {
                keep[order[i]] = 1;
                size += segs[order[i]].bytes;
            }
            break;
        }
        for (; i < j; ++i)
            keep[order[i]] = 1;
        size += planeBytes;
    }
    for (size_t c = 0; c < chunks.size(); ++c)
        while (kept[c] < chunks[c].segmentCount &&
               keep[chunks[c].firstSegment + kept[c]])
            ++kept[c];
    return kept;
}

/**
 * Decode one chunk of `layout` (offsets into `data`) from its first
 * `segments` segments. A chunk without a plane byte codes no plane and
 * reconstructs as zeros.
 */
raster::Plane
decodeChunk(int width, int height, int dwtLevels, const uint8_t *data,
            const StreamLayout &layout, const StreamLayout::Chunk &chunk,
            size_t segments)
{
    const std::shared_ptr<const TileGeometry> geom =
        TileGeometry::of(width, height, dwtLevels);
    DecodedTile state(width, height);
    TileDecoder dec(*geom, state.magnitude.data(), state.sign.data(),
                    state.lowPlane.data());
    if (chunk.head != 0) {
        dec.decodeHeaderByte(data[chunk.body]);
        for (size_t k = 0; k < segments; ++k) {
            const StreamLayout::Segment &seg =
                layout.segments[chunk.firstSegment + k];
            const size_t body = seg.bytes - sizeof(uint32_t);
            RangeDecoder rd(data + seg.end - body, body);
            dec.decodePassRun(rd, seg.passes);
        }
    }
    dec.finish();
    return state.reconstruct(dwtLevels);
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
    StreamLayout layout;
    return layoutStream(data, len, layout);
}

size_t
streamHeaderFloor(const std::vector<uint8_t> &bytes)
{
    return streamHeaderFloor(bytes.data(), bytes.size());
}

std::vector<uint8_t>
truncateStream(const uint8_t *data, size_t len, size_t budget)
{
    StreamLayout layout;
    const size_t floor = layoutStream(data, len, layout);
    if (budget >= len)
        return std::vector<uint8_t>(data, data + len);
    EP_ASSERT(budget >= floor, "budget %zu below the stream floor %zu",
              budget, floor);
    const std::vector<size_t> kept = keptSegments(layout, floor, budget);

    // Each chunk keeps one contiguous byte range, its plane byte and
    // its kept segments; re-frame bottom-up.
    std::vector<size_t> ecLen(layout.chunks.size());
    size_t chunkLen = 0;
    for (size_t c = 0; c < layout.chunks.size(); ++c) {
        const StreamLayout::Chunk &chunk = layout.chunks[c];
        const size_t end = kept[c] == 0
            ? chunk.body + chunk.head
            : layout.segments[chunk.firstSegment + kept[c] - 1].end;
        ecLen[c] = end - chunk.body;
        chunkLen += 8 + ecLen[c];
    }

    std::vector<uint8_t> out;
    out.reserve(layout.headerEnd + 4 + chunkLen);
    out.insert(out.end(), data, data + layout.headerEnd);
    appendPod(out, static_cast<uint32_t>(chunkLen));
    for (size_t c = 0; c < layout.chunks.size(); ++c) {
        // subLen = 4 + ecLen: the sub-chunk is the one framed chunk.
        const uint8_t *body = data + layout.chunks[c].body;
        appendPod(out, static_cast<uint32_t>(4 + ecLen[c]));
        appendPod(out, static_cast<uint32_t>(ecLen[c]));
        out.insert(out.end(), body, body + ecLen[c]);
    }
    return out;
}

std::vector<uint8_t>
truncateStream(const std::vector<uint8_t> &bytes, size_t budget)
{
    return truncateStream(bytes.data(), bytes.size(), budget);
}

std::vector<EncodedImage>
encode(const std::vector<BandEncode> &bands)
{
    telemetry::TraceSpan encodeSpan("codec.encode", "codec");

    // One job per coded (band, tile) pair, band-major and each band's
    // tiles in flat tile-index order.
    struct Job
    {
        size_t band;
        raster::TileRect rect;
        size_t budget;
    };
    std::vector<Job> jobs;
    std::vector<EncodedImage> out(bands.size());
    for (size_t b = 0; b < bands.size(); ++b) {
        EP_ASSERT(bands[b].img, "band %zu has no plane", b);
        const raster::Plane &img = *bands[b].img;
        const EncodeParams &params = bands[b].params;
        EP_ASSERT(params.tileSize > 0 && params.tileSize <= kMaxTileSize,
                  "EPC5 tiles are 1 to %d pixels on an edge, not %d",
                  kMaxTileSize, params.tileSize);
        EP_ASSERT(params.bitsPerPixel > 0.0, "non-positive bit budget");
        raster::TileGrid grid(img.width(), img.height(), params.tileSize);
        if (params.roi) {
            EP_ASSERT(params.roi->tilesX() == grid.tilesX() &&
                      params.roi->tilesY() == grid.tilesY(),
                      "ROI mask (%dx%d tiles) does not match grid (%dx%d)",
                      params.roi->tilesX(), params.roi->tilesY(),
                      grid.tilesX(), grid.tilesY());
        }

        EncodedImage &e = out[b];
        e.width = img.width();
        e.height = img.height();
        e.tileSize = params.tileSize;
        e.dwtLevels = params.dwtLevels;
        e.tileCoded.assign(static_cast<size_t>(grid.tileCount()), 0);

        for (int t = 0; t < grid.tileCount(); ++t) {
            if (params.roi && !params.roi->get(t))
                continue;
            e.tileCoded[static_cast<size_t>(t)] = 1;
            raster::TileRect r = grid.rect(t);
            size_t pixels = static_cast<size_t>(r.width) *
                            static_cast<size_t>(r.height);
            size_t budget = static_cast<size_t>(
                params.bitsPerPixel * static_cast<double>(pixels) / 8.0);
            jobs.push_back({b, r, budget});
        }
    }

    // Zero-filled reconstructions, one band per lane.
    util::ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(bands.size()), [&](int64_t b) {
            const BandEncode &band = bands[static_cast<size_t>(b)];
            if (band.reconstruction)
                *band.reconstruction = raster::Plane(
                    band.img->width(), band.img->height(), 0.0f);
        });

    // The one tile loop. A job's DWT, entropy coding and (when asked)
    // reconstruction all run inside encodeTile, and a band's tiles own
    // disjoint rectangles of its own reconstruction, so concurrent
    // pastes never touch the same pixel. Sub-chunks are appended to
    // their band's payload in job order, so every stream is
    // byte-identical at every thread count.
    util::orderedReduce(
        jobs.size(),
        [&](size_t i) {
            const Job &job = jobs[i];
            const BandEncode &band = bands[job.band];
            const raster::TileRect &r = job.rect;
            raster::Plane tile =
                band.img->crop(r.x0, r.y0, r.width, r.height);
            raster::Plane decoded;
            std::vector<uint8_t> sub =
                encodeTile(tile, band.params.dwtLevels, job.budget,
                           band.reconstruction ? &decoded : nullptr);
            if (band.reconstruction)
                band.reconstruction->paste(decoded, r.x0, r.y0);
            return sub;
        },
        [&](size_t i, std::vector<uint8_t> sub) {
            codecMetrics().tilesEncoded.add();
            std::vector<uint8_t> &payload = out[jobs[i].band].payload;
            appendPod(payload, static_cast<uint32_t>(sub.size()));
            payload.insert(payload.end(), sub.begin(), sub.end());
        });
    return out;
}

EncodedImage
encode(const raster::Plane &img, const EncodeParams &params,
       raster::Plane *reconstruction)
{
    return std::move(encode({{&img, params, reconstruction}}).front());
}

raster::Plane
decode(const EncodedImage &e)
{
    telemetry::TraceSpan decodeSpan("codec.decode", "codec");
    std::vector<int> coded;
    for (size_t t = 0; t < e.tileCoded.size(); ++t)
        if (e.tileCoded[t])
            coded.push_back(static_cast<int>(t));
    std::vector<raster::Plane> tiles = decodeTiles(e, coded);
    // Tile rectangles are disjoint, so pasting never overlaps.
    raster::TileGrid grid(e.width, e.height, e.tileSize);
    raster::Plane out(e.width, e.height, 0.0f);
    for (size_t i = 0; i < coded.size(); ++i) {
        raster::TileRect r = grid.rect(coded[i]);
        out.paste(tiles[i], r.x0, r.y0);
    }
    return out;
}

std::vector<raster::Plane>
decodeTiles(const EncodedImage &e, const std::vector<int> &tiles,
            size_t budget)
{
    raster::TileGrid grid(e.width, e.height, e.tileSize);
    EP_ASSERT(static_cast<int>(e.tileCoded.size()) == grid.tileCount(),
              "coded-tile flags (%zu) do not match grid (%d)",
              e.tileCoded.size(), grid.tileCount());
    for (int t : tiles)
        EP_ASSERT(t >= 0 && t < grid.tileCount(),
                  "tile index %d outside grid of %d tiles", t,
                  grid.tileCount());
    // Tile index -> its chunk, or -1 when not coded.
    std::vector<int> chunkOf(e.tileCoded.size(), -1);
    size_t nCoded = 0;
    for (size_t t = 0; t < e.tileCoded.size(); ++t)
        if (e.tileCoded[t])
            chunkOf[t] = static_cast<int>(nCoded++);
    // Every parsed or encoded image frames its coded tiles exactly.
    StreamLayout layout;
    Cursor c{e.payload.data(), e.payload.size()};
    EP_ASSERT(walkTiles(c, c.len, nCoded, &layout) && c.pos == c.len,
              "encoded image payload is mis-framed at byte %zu", c.pos);
    // The segments truncateStream(e.serialize(), budget) would keep.
    const std::vector<size_t> kept = keptSegments(
        layout, e.totalBytes() - segmentBytes(layout), budget);

    return util::parallelMap(tiles.size(), [&](size_t i) {
        telemetry::TraceSpan span("codec.decode_tile", "codec");
        int t = tiles[i];
        raster::TileRect r = grid.rect(t);
        int chunk = chunkOf[static_cast<size_t>(t)];
        if (chunk < 0)
            return raster::Plane(r.width, r.height, 0.0f);
        telemetry::ScopedTimer timer(codecMetrics().decodeTileNs);
        codecMetrics().tilesDecoded.add();
        return decodeChunk(r.width, r.height, e.dwtLevels,
                           e.payload.data(), layout,
                           layout.chunks[static_cast<size_t>(chunk)],
                           kept[static_cast<size_t>(chunk)]);
    });
}

raster::Plane
decodeTile(int width, int height, int dwtLevels, ChunkSpan sub)
{
    // An empty sub-chunk holds no chunk; one that ends early decodes
    // the segments walked before its end.
    StreamLayout layout;
    Cursor c{sub.data, sub.size};
    walkChunk(c, sub.size, &layout);
    const StreamLayout::Chunk chunk =
        layout.chunks.empty() ? StreamLayout::Chunk{} : layout.chunks[0];
    return decodeChunk(width, height, dwtLevels, sub.data, layout, chunk,
                       chunk.segmentCount);
}

} // namespace earthplus::codec

/**
 * @file
 * Image-level codec front-end.
 *
 * Plays the role of the paper's JPEG-2000 encoder (Kakadu, §5): encodes
 * one image plane tile-by-tile with a bits-per-pixel budget, an optional
 * region-of-interest mask (only ROI tiles are coded, as in Earth+'s
 * changed-tile encoding), and SNR-progressive quality layers (used for
 * downlink-bandwidth adaptation, §5 "Handling bandwidth fluctuation").
 *
 * There is one stream format, "EPC4" (docs/ARCHITECTURE.md): every
 * stream this module writes or reads is progressive, so any stream
 * that parses can be cut at its recorded truncation points.
 */

#ifndef EARTHPLUS_CODEC_CODEC_HH
#define EARTHPLUS_CODEC_CODEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "codec/tile_coder.hh"
#include "raster/plane.hh"
#include "raster/tile.hh"

namespace earthplus::codec {

/**
 * Outcome of a non-fatal stream parse (tryDeserialize()).
 *
 * `Truncated` means the bytes are a prefix of a longer stream cut at
 * an unrecorded offset (recorded truncation points of a progressive
 * stream parse successfully instead); `Corrupt` means a field failed
 * validation outright.
 */
enum class StreamError
{
    None = 0,
    Truncated,
    Corrupt,
};

/** Encoding configuration. */
struct EncodeParams
{
    /**
     * Bit budget per coded (ROI) pixel. Image-level rate equals
     * bitsPerPixel x (ROI fraction), matching §5: each encoded tile
     * receives a constant budget gamma.
     */
    double bitsPerPixel = 2.0;
    /** Dyadic DWT levels per tile. */
    int dwtLevels = 4;
    /** Wavelet filter. */
    Wavelet wavelet = Wavelet::CDF97;
    /** Exact reconstruction (forces LeGall53 + full bitplanes). */
    bool lossless = false;
    /** Integer depth for the lossless mapping. */
    int losslessDepth = 8;
    /** Deadzone quantizer step for the lossy path. */
    double quantStep = 1.0 / 512.0;
    /** Tile edge length in pixels. */
    int tileSize = raster::kDefaultTileSize;
    /** Optional region of interest; null encodes every tile. */
    const raster::TileMask *roi = nullptr;
    /** Number of SNR-progressive quality layers (>= 1). */
    int layers = 1;
    /**
     * Rows per entropy chunk inside each tile (see
     * TileCoderParams::chunkRows); must be positive.
     */
    int chunkRows = kDefaultChunkRows;
};

/**
 * An encoded plane: container header, coded-tile flags and one byte
 * chunk per quality layer, in the EPC4 layout, whose inline segment
 * framing records truncation points, so a stream can be cut to any
 * byte budget after encoding (truncateStream()) and still decode
 * best-effort.
 */
struct EncodedImage
{
    int width = 0;
    int height = 0;
    int tileSize = raster::kDefaultTileSize;
    int dwtLevels = 4;
    int layers = 1;
    Wavelet wavelet = Wavelet::CDF97;
    bool lossless = false;
    int losslessDepth = 8;
    double quantStep = 1.0 / 512.0;
    /** Entropy chunk height in rows (positive). */
    int chunkRows = kDefaultChunkRows;
    /**
     * True when the parsed stream was cut at a recorded truncation
     * point: the last layer chunk may be a partial prefix and later
     * layers may be missing entirely; decode reconstructs best-effort.
     * A truncated image cannot be re-serialized.
     */
    bool truncated = false;
    /** Per-tile coded flag, flat tile index order. */
    std::vector<uint8_t> tileCoded;
    /**
     * One entropy-coded chunk per quality layer. Within a chunk, each
     * coded tile contributes (in flat tile-index order) a 4-byte
     * little-endian length followed by that tile's self-contained
     * range-coded sub-chunk, so tiles encode and decode as independent
     * parallel jobs while the assembled stream stays deterministic.
     * Each tile sub-chunk is itself a sequence of length-prefixed
     * entropy chunks (see docs/ARCHITECTURE.md).
     */
    std::vector<std::vector<uint8_t>> layerChunks;

    /** Sum of layer chunk sizes in bytes. */
    size_t payloadBytes() const;

    /** Container + coded-tile-bitmap overhead in bytes. */
    size_t headerBytes() const;

    /** Total wire size (what a downlink must carry). */
    size_t totalBytes() const;

    /** Wire size when only the first `layerCount` layers are sent. */
    size_t totalBytesForLayers(int layerCount) const;

    /** Fraction of tiles that were coded. */
    double codedTileFraction() const;

    /** Serialize to a self-describing byte stream. */
    std::vector<uint8_t> serialize() const;

    /** Parse a stream produced by serialize(); fatal() on corruption. */
    static EncodedImage deserialize(const std::vector<uint8_t> &bytes);

    /**
     * Parse a stream from a borrowed byte range (same validation).
     * The ground tile server parses archive payloads straight out of
     * their file mapping through this overload — no staging copy.
     */
    static EncodedImage deserialize(const uint8_t *data, size_t len);

    /**
     * Non-fatal parse: on success fills `out` (possibly with
     * `out.truncated` set when the stream was cut at a recorded
     * truncation point) and returns StreamError::None; on
     * failure returns the typed error and, when `message` is non-null,
     * the diagnostic deserialize() would have died with. Never
     * fatal()s — this is the entry point for untrusted or
     * deliberately cut byte ranges.
     */
    static StreamError tryDeserialize(const uint8_t *data, size_t len,
                                      EncodedImage &out,
                                      std::string *message = nullptr);
};

/**
 * Header floor of a serialized stream: the byte offset just past the
 * fixed header and coded-tile bitmap — the smallest prefix any decode
 * needs. fatal() on a stream too corrupt to measure.
 */
size_t streamHeaderFloor(const uint8_t *data, size_t len);

/** @copydoc streamHeaderFloor(const uint8_t*,size_t) */
size_t streamHeaderFloor(const std::vector<uint8_t> &bytes);

/**
 * All recorded truncation points of a serialized stream that
 * tryDeserialize() accepts (complete, or itself cut at a recorded
 * point), in ascending order. The first entry is the header floor and
 * the last is the stream length; cutting the stream at any entry
 * yields a prefix that tryDeserialize() accepts and decode()
 * reconstructs best-effort, and cutting anywhere else yields
 * StreamError::Truncated. fatal() on a stream that does not parse.
 */
std::vector<size_t> truncationPoints(const uint8_t *data, size_t len);

/** @copydoc truncationPoints(const uint8_t*,size_t) */
std::vector<size_t> truncationPoints(const std::vector<uint8_t> &bytes);

/**
 * Cut a serialized stream that tryDeserialize() accepts to the largest
 * recorded truncation point that fits `budget` bytes — rate control
 * without re-encoding. Cutting an already cut stream again gives the
 * same bytes as cutting the complete stream to the same budget. The
 * result always satisfies `size() <= budget`; budgets at or above the
 * stream length return the stream unchanged. fatal() when `budget` is
 * below the header floor or the stream does not parse.
 */
std::vector<uint8_t> truncateStream(const uint8_t *data, size_t len,
                                    size_t budget);

/** @copydoc truncateStream(const uint8_t*,size_t,size_t) */
std::vector<uint8_t> truncateStream(const std::vector<uint8_t> &bytes,
                                    size_t budget);

/**
 * Encode one plane.
 *
 * @param img Pixel data in [0, 1].
 * @param params Encoding configuration; params.roi, when set, must match
 *               the plane's tile grid.
 * @param reconstruction When non-null, receives exactly what decode()
 *               of the returned stream produces (zeros outside the
 *               ROI), rebuilt from each tile's final encoder state
 *               instead of by entropy-decoding the bytes — the
 *               decoder-equivalent state rule of docs/ARCHITECTURE.md.
 *               Null costs nothing extra.
 */
EncodedImage encode(const raster::Plane &img, const EncodeParams &params,
                    raster::Plane *reconstruction = nullptr);

/**
 * Decode an encoded plane.
 *
 * Tiles outside the encoded ROI are filled with zeros — Earth+ overlays
 * decoded changed tiles onto the ground's reference copy. Decoding a
 * stream that parsed (including one cut at a recorded truncation
 * point) never fatal()s. Each coded tile records one
 * `codec.decode_tile_ns` sample.
 *
 * @param maxLayers Decode only the first maxLayers quality layers
 *                  (-1 = all). Fewer layers = lower quality, fewer bytes.
 */
raster::Plane decode(const EncodedImage &enc, int maxLayers = -1);

/**
 * Decode only the requested tiles (flat tile indices).
 *
 * The ground tile server answers rectangle queries without paying for
 * a full-plane decode: tiles are self-contained sub-chunks, so a
 * subset decodes in isolation. Returns one plane per requested tile in
 * request order; tiles outside the encoded ROI come back as zero
 * planes of the tile's rectangle (same fill decode() would produce).
 * Each requested coded tile records one `codec.decode_tile_ns` sample.
 *
 * @param tiles Flat tile indices within the image's tile grid.
 * @param maxLayers Decode only the first maxLayers layers (-1 = all).
 */
std::vector<raster::Plane> decodeTiles(const EncodedImage &enc,
                                       const std::vector<int> &tiles,
                                       int maxLayers = -1);

} // namespace earthplus::codec

#endif // EARTHPLUS_CODEC_CODEC_HH

/**
 * @file
 * Image-level codec front-end.
 *
 * Plays the role of the paper's JPEG-2000 encoder (Kakadu, §5): encodes
 * image planes tile-by-tile with a bits-per-pixel budget, an optional
 * region-of-interest mask (only ROI tiles are coded, as in Earth+'s
 * changed-tile encoding), and a bitplane-progressive stream that
 * truncateStream() cuts to any byte budget after encoding (downlink
 * bandwidth adaptation, §5 "Handling bandwidth fluctuation") and that
 * decodeTiles() decodes at any byte budget, as it would decode the cut.
 *
 * There is one stream format, "EPC5" (docs/ARCHITECTURE.md), and one
 * coding mode: the CDF 9/7 transform and the kQuantStep deadzone
 * quantizer, coded to a byte budget. Every stream this module writes or
 * reads is complete and well framed; a cut is a smaller complete
 * stream, never a prefix. The header's flags word, quantizer step and
 * chunk height take fixed values: flags 0x800, step kQuantStep and
 * chunk height kMaxTileSize. Tiles are at most kMaxTileSize on an
 * edge, so every tile is one entropy chunk. Parsing rejects any other
 * value as StreamError::Corrupt, and so is any other magic, the retired
 * EPC4's included: EPC5 changed how cleanup zero runs are coded, and
 * no EPC4 bytes existed outside the tests.
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
 * Largest tile edge an EPC5 stream codes. The header's chunk-height
 * word always holds it, so every tile is exactly one entropy chunk.
 */
constexpr int kMaxTileSize = 128;

/**
 * Outcome of a non-fatal stream parse (tryDeserialize()).
 *
 * `Truncated` means the bytes end before the stream's framing does
 * (a short read, or a prefix of a stream); `Corrupt` means a field
 * failed validation outright, or bytes follow the stream's end.
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
    /** Tile edge length in pixels, in [1, kMaxTileSize]. */
    int tileSize = raster::kDefaultTileSize;
    /** Optional region of interest; null encodes every tile. */
    const raster::TileMask *roi = nullptr;
};

/**
 * An encoded plane: container header, coded-tile flags and one payload
 * chunk, in the EPC5 layout, whose inline per-plane segment framing
 * lets truncateStream() cut a stream to any byte budget after encoding.
 */
struct EncodedImage
{
    int width = 0;
    int height = 0;
    int tileSize = raster::kDefaultTileSize;
    int dwtLevels = 4;
    /** Per-tile coded flag, flat tile index order. */
    std::vector<uint8_t> tileCoded;
    /**
     * The entropy-coded payload. Each coded tile contributes (in flat
     * tile-index order) a 4-byte little-endian length followed by that
     * tile's self-contained sub-chunk, so tiles encode and decode as
     * independent parallel jobs while the assembled stream stays
     * deterministic. Each tile sub-chunk is one length-prefixed
     * entropy chunk (see docs/ARCHITECTURE.md).
     */
    std::vector<uint8_t> payload;

    /** Payload size in bytes. */
    size_t payloadBytes() const;

    /** Container + coded-tile-bitmap overhead in bytes. */
    size_t headerBytes() const;

    /** Total wire size (what a downlink must carry). */
    size_t totalBytes() const;

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
     * Non-fatal parse: on success fills `out` and returns
     * StreamError::None; on failure returns the typed error and, when
     * `message` is non-null, the diagnostic deserialize() would have
     * died with. Never fatal()s — this is the entry point for
     * untrusted byte ranges.
     */
    static StreamError tryDeserialize(const uint8_t *data, size_t len,
                                      EncodedImage &out,
                                      std::string *message = nullptr);
};

/**
 * The cutter's floor: the size of the smallest stream truncateStream()
 * can cut this one to — header, coded-tile bitmap and every length
 * word and plane byte, with no segments. fatal() on a stream that
 * does not parse.
 */
size_t streamHeaderFloor(const uint8_t *data, size_t len);

/** @copydoc streamHeaderFloor(const uint8_t*,size_t) */
size_t streamHeaderFloor(const std::vector<uint8_t> &bytes);

/**
 * Tile-fair cut of a serialized stream to `budget` bytes — rate
 * control without re-encoding, and without entropy work: only length
 * words are rewritten and kept segments copied. Segment k of a tile's
 * entropy chunk codes plane `maxPlane - k`, and every tile shares one
 * quantizer step, so the cut keeps every segment at planes >= T for
 * the lowest T whose bytes fit, then admits plane T-1 segments
 * smallest first (ties in stream order) up to the first one that does
 * not fit. Every tile therefore keeps its planes down to one common
 * plane (or all it has, when it was coded to fewer), give or take the
 * one plane the budget splits, instead of the stream's last tiles
 * losing everything. decodeTiles() applies the same keep rule at
 * decode time, so a reader that only wants pixels never builds the
 * cut.
 *
 * The result is a complete EPC5 stream with `size() <= budget`;
 * budgets at or above the stream length return the stream unchanged.
 * Cuts nest: cutting a cut gives the same bytes as cutting the whole
 * stream to the smaller budget. fatal() when `budget` is below
 * streamHeaderFloor() or the stream does not parse.
 */
std::vector<uint8_t> truncateStream(const uint8_t *data, size_t len,
                                    size_t budget);

/** @copydoc truncateStream(const uint8_t*,size_t,size_t) */
std::vector<uint8_t> truncateStream(const std::vector<uint8_t> &bytes,
                                    size_t budget);

/** One plane of a band-list encode(). */
struct BandEncode
{
    /** Pixel data in [0, 1]. */
    const raster::Plane *img = nullptr;
    /**
     * Encoding configuration; params.roi, when set, must match the
     * plane's tile grid.
     */
    EncodeParams params;
    /**
     * When non-null, receives exactly what decode() of the band's
     * stream produces (zeros outside the ROI), rebuilt from each tile's
     * final encoder state instead of by entropy-decoding the bytes —
     * the decoder-equivalent state rule of docs/ARCHITECTURE.md. Null
     * costs nothing extra; bands of one list must not share one.
     */
    raster::Plane *reconstruction = nullptr;
};

/**
 * Encode a list of planes, each with its own parameters and ROI, as
 * one job per coded (band, tile) pair on the global pool. Returns one
 * stream per band in list order; each is byte-identical to a
 * single-plane encode() of that band, at every thread count.
 */
std::vector<EncodedImage> encode(const std::vector<BandEncode> &bands);

/**
 * Encode one plane: encode() of a one-band list.
 *
 * @param img Pixel data in [0, 1].
 * @param params Encoding configuration (see BandEncode::params).
 * @param reconstruction See BandEncode::reconstruction.
 */
EncodedImage encode(const raster::Plane &img, const EncodeParams &params,
                    raster::Plane *reconstruction = nullptr);

/**
 * Decode an encoded plane: decodeTiles() of every coded tile, pasted
 * into one plane.
 *
 * Tiles outside the encoded ROI are filled with zeros — Earth+ overlays
 * decoded changed tiles onto the ground's reference copy. Decoding a
 * stream that parsed never fatal()s. Each coded tile records one
 * `codec.decode_tile_ns` sample.
 */
raster::Plane decode(const EncodedImage &enc);

/**
 * Decode only the requested tiles (flat tile indices), at a byte
 * budget.
 *
 * The ground tile server answers rectangle queries without paying for
 * a full-plane decode: tiles are self-contained sub-chunks, so a
 * subset decodes in isolation. Returns one plane per requested tile in
 * request order; tiles outside the encoded ROI come back as zero
 * planes of the tile's rectangle (same fill decode() would produce).
 * Each requested coded tile records one `codec.decode_tile_ns` sample.
 * Every decode reads the segments the stream walker laid out; a
 * stream that parsed never fatal()s.
 *
 * @param tiles Flat tile indices within the image's tile grid.
 * @param budget Bytes of the serialized stream to decode: each tile
 *        decodes the leading segments that truncateStream() keeps at
 *        this budget, so the pixels equal those of decoding the cut.
 *        A budget below streamHeaderFloor() decodes as the floor,
 *        with no segment; SIZE_MAX decodes every segment.
 */
std::vector<raster::Plane> decodeTiles(const EncodedImage &enc,
                                       const std::vector<int> &tiles,
                                       size_t budget = SIZE_MAX);

/** A read-only byte window into a larger buffer. */
struct ChunkSpan
{
    const uint8_t *data = nullptr;
    size_t size = 0;
};

/**
 * Decode one tile from its sub-chunk, as encodeTile() wrote it or as a
 * stream carries it: the same chunk walker that parses streams lays it
 * out, and every segment it holds is decoded. An empty sub-chunk or
 * chunk decodes to zeros; a sub-chunk that ends early decodes the
 * segments before its end.
 */
raster::Plane decodeTile(int width, int height, int dwtLevels,
                         ChunkSpan sub);

} // namespace earthplus::codec

#endif // EARTHPLUS_CODEC_CODEC_HH

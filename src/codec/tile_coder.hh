/**
 * @file
 * Embedded bitplane coder for one image tile.
 *
 * The codec's one mode: transformTile() runs the CDF 9/7 wavelet and
 * the kQuantStep deadzone quantizer, and the quantized coefficients
 * are coded magnitude-bitplane by magnitude-bitplane (MSB first) with
 * context-adaptive binary range coding, so a prefix of the coded
 * planes is a lower-quality version of the tile. This provides the two
 * codec properties Earth+ relies on: bit-budget rate control (stop
 * emitting planes when the tile budget is exhausted) and cutting a
 * coded stream to a smaller budget after encoding by dropping each
 * tile's lowest planes (codec::truncateStream(); §5, "Handling
 * bandwidth fluctuation").
 *
 * The coding passes are bitset-driven: significance, visited and
 * refinable state live in word-packed `uint64_t` planes (one fresh run
 * of words per row), each pass derives its candidate set with
 * word-level operations — pass 0 from a 4-neighbor dilation of the
 * significance plane, pass 1 from the refinable plane, pass 2 from
 * `~significant & ~visited` — and iterates only set bits. All-zero
 * words cost one test per 64 coefficients, which is what makes sparse
 * change-delta tiles (the common case in Earth+'s delta encoding)
 * cheap. The candidate evolution reproduces the per-pixel raster scan
 * exactly — including mid-pass significance propagating to the right
 * neighbor — and `tests/golden_stream_test.cc` pins the bytes.
 *
 * Zero runs: most cleanup (pass 2) candidates are isolated
 * coefficients, nearly all 0. An ungated candidate and the candidates
 * after it in its word form one run, which stops at the next gated
 * candidate, the next subband-orientation edge, the word end or the
 * first 1. A run of n candidates codes one "holds a 1" decision under
 * TileContexts::run and, when it does, the index of its first 1 in
 * ceil(log2 n) raw bits; the encoder finds that 1 in the plane-bit
 * mask with one count-trailing-zeros.
 *
 * Geometry is per shape: the orientation map and the orientation-edge
 * masks depend only on (width, height, levels), so one immutable
 * TileGeometry per shape is built on first use and shared read-only by
 * every encoder and decoder, on every thread.
 *
 * The register rule: every pass loop runs on local copies of the coder
 * state — the range decoder, and in refinement the one model — and
 * writes them back at the pass end. A local whose address never
 * escapes cannot alias the loop's stores into the coefficient arrays,
 * so range, code and read position stay in registers.
 *
 * One chunk per tile: a tile is coded by one TileEncoder/TileDecoder
 * pair — one range coder, one context set, one significance state —
 * into one entropy chunk, and its sub-chunk is that chunk behind a u32
 * length word. Tiles are the unit of parallelism (codec::encode()).
 *
 * The chunk payload is the EPC5 segment layout: a raw `maxPlane + 1`
 * byte, then one independently flushed range-coded segment per plane,
 * each `u32 segWord | body` with
 * `segWord = byteLen << 2 | (passCount - 1)`, so segment k codes plane
 * `maxPlane - k` and a cut can drop a chunk's trailing segments
 * without entropy work. The codec's stream walker (codec.cc) is the
 * one reader of that framing: it lays out every segment, and
 * codec::decodeTile() and codec::decodeTiles() feed the laid-out
 * segments to a TileDecoder.
 */

#ifndef EARTHPLUS_CODEC_TILE_CODER_HH
#define EARTHPLUS_CODEC_TILE_CODER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "codec/rangecoder.hh"
#include "raster/plane.hh"

namespace earthplus::codec {

/**
 * Deadzone quantizer step of the CDF 9/7 coefficients, in pixel units.
 * Fixed: every EPC5 stream records it, and parsing rejects any other.
 */
constexpr double kQuantStep = 1.0 / 512.0;

/**
 * Context model set shared by encoder and decoder.
 *
 * Significance contexts are selected by subband orientation and the
 * number of already-significant 4-neighbors, cleanup zero-run contexts
 * by orientation and run length; refinement bits use a single model. Models persist across segments, mirroring the decoder
 * exactly. Each tile owns a private set.
 */
struct TileContexts
{
    /**
     * [orientation 0..3][min(#significant neighbors,3) - 1]: a
     * candidate without a significant neighbor is coded in a run.
     */
    std::array<std::array<BitModel, 3>, 4> significance;
    /**
     * Cleanup zero runs' "holds a 1" decision, by
     * [orientation 0..3][floor(log2 run length)]; runs never cross a
     * 64-bit word, so the bucket is at most 6.
     */
    std::array<std::array<BitModel, 7>, 4> run;
    /** Magnitude refinement bits. */
    BitModel refinement;
};

/**
 * The read-only state every coder of one tile shape shares: the
 * subband-orientation map and the orientation edges of a `width` x
 * `height` tile at `levels` DWT levels. of() builds it once per shape;
 * after that it is only read — by transformTile(), TileEncoder,
 * TileDecoder and the codec's decoders, on any thread.
 */
struct TileGeometry
{
    /** Build one shape's state; of() shares it. */
    TileGeometry(int width, int height, int levels);

    /**
     * The shared geometry of a shape, built on its first use.
     * Thread-safe. The first kSharedShapes shapes are kept for the
     * life of the process; any later one is built per call and not
     * shared, so a stream of odd shapes cannot grow the cache without
     * bound.
     */
    static std::shared_ptr<const TileGeometry> of(int width, int height,
                                                  int levels);

    /** Shapes of() keeps (a few KB each). */
    static constexpr size_t kSharedShapes = 256;

    int width;
    int height;
    int wordsPerRow; ///< 64-pixel words per packed bitset row.
    /** subbandOrientation() of the shape, one code per coefficient. */
    std::vector<uint8_t> orient;
    /**
     * Per packed row word: bit b is set where coefficient b's
     * orientation differs from its left neighbor's — the places a
     * cleanup zero run must stop, because its model changes there.
     * Bit 0 is never set: a run never crosses a word.
     */
    std::vector<uint64_t> edges;
};

/**
 * 4-neighbor dilation of one packed significance row: bit x of `out`
 * is set when bit x-1 or x+1 of `row`, or bit x of `up` or `down`, is
 * set. `up`/`down` may be null at the tile border. Bits of `out` past
 * the row's width are not meaningful; the scans mask them. Shipped
 * tiles are at most two words wide, so this stays a few inline word
 * ops.
 */
inline void
dilateRow(const uint64_t *up, const uint64_t *row, const uint64_t *down,
          int words, uint64_t *out)
{
    for (int w = 0; w < words; ++w) {
        const uint64_t cur = row[w];
        uint64_t nb = (cur << 1) | (cur >> 1);
        if (w > 0)
            nb |= row[w - 1] >> 63;
        if (w + 1 < words)
            nb |= row[w + 1] << 63;
        if (up)
            nb |= up[w];
        if (down)
            nb |= down[w];
        out[w] = nb;
    }
}

/**
 * One tile's quantized wavelet coefficients in sign/magnitude form —
 * the output of the DWT+quantization stage and the input of the
 * entropy stage, which reads it through a TileEncoder.
 */
struct TileCoefficients
{
    /** The tile's shape, shared (TileGeometry::of()). */
    std::shared_ptr<const TileGeometry> geometry;
    std::vector<uint32_t> magnitude;
    std::vector<uint8_t> sign;
};

/**
 * CDF 9/7 DWT at `dwtLevels` dyadic levels + kQuantStep deadzone
 * quantization of one tile (values in [0, 1]) into sign/magnitude
 * coefficients. Pure function of (pixels, dwtLevels);
 * runs through the dispatched kernel table but every SIMD level
 * shares the scalar dataflow, so the result is level-independent.
 */
TileCoefficients transformTile(const raster::Plane &tile, int dwtLevels);

/**
 * Encoder for the entropy chunk of a transformed tile.
 *
 * Usage: construct over the coefficients (borrowed — the
 * TileCoefficients must outlive the encoder), write the raw
 * `maxPlane() + 1` header byte at the head of the chunk's payload,
 * then call encodePlanes() with the chunk's byte limit.
 */
class TileEncoder
{
  public:
    /** @param coeffs Transformed tile (see transformTile()). */
    explicit TileEncoder(const TileCoefficients &coeffs);

    /**
     * Emit the next passes framed into independently flushed per-plane
     * segments appended to `payload` (the segment framing of the file
     * comment). Before every pass the encoder compares the bytes the
     * payload would hold if the open segment ended now — the segments
     * already emitted, the open segment's framing word and the bytes
     * its coder has written — with `byteLimit`, and stops once they
     * reach it. A call therefore overshoots its limit by at most the
     * last pass it started plus that segment's flush.
     *
     * @param payload Destination chunk payload (appended to).
     * @param byteLimit Stop once payload.size() would reach this.
     */
    void encodePlanes(std::vector<uint8_t> &payload, size_t byteLimit);

    /** Highest magnitude bitplane present (-1 for an all-zero tile). */
    int maxPlane() const { return maxPlane_; }

    /**
     * Write the coefficient state a TileDecoder reaches after decoding
     * every pass emitted so far — the decoder-equivalent state of
     * docs/ARCHITECTURE.md — into caller-owned buffers of
     * `width * height` entries, laid out like TileDecoder's outputs.
     * With the chunk stopped at plane P after k passes of P, a
     * coefficient coded in those k passes keeps its magnitude bits
     * down to P and gets lowPlane P; every other coefficient keeps the
     * bits above P and gets lowPlane P + 1; the sign is set only where
     * the magnitude is non-zero.
     */
    void decoderState(uint32_t *magnitude, uint8_t *sign,
                      uint8_t *lowPlane) const;

  private:
    /// Borrowed views into the TileCoefficients.
    const TileGeometry &geom_;
    const uint32_t *magnitude_;
    const uint8_t *sign_;
    /// Word-packed per-pixel state, row stride geom_.wordsPerRow.
    std::vector<uint64_t> sigBits_;       ///< Significant so far.
    std::vector<uint64_t> visitedBits_;   ///< Coded in pass 0, this plane.
    std::vector<uint64_t> refinableBits_; ///< Significant before this plane.
    std::vector<uint64_t> planeBits_;     ///< Magnitude bit of this plane.
    std::vector<uint64_t> dilation_;      ///< Per-row candidate scratch.
    TileContexts ctx_;
    int maxPlane_;
    int nextPlane_;
    int nextPass_; ///< 0 = sig-propagation, 1 = refinement, 2 = cleanup.

    /// Encoder-side scan actions of the shared significance scans.
    struct EncoderScan;
    void encodePass(RangeEncoder &enc, int plane, int pass);
    void beginPlane(int plane);
    void encodeSigPass(RangeEncoder &enc);
    void encodeRefinePass(RangeEncoder &enc);
    void encodeCleanupPass(RangeEncoder &enc);
};

/**
 * Decoder mirroring TileEncoder: decodes a tile's entropy chunk into
 * caller-owned coefficient buffers (borrowed). Usage:
 * construct, pass the chunk payload's leading byte to
 * decodeHeaderByte(), call decodePassRun() once per segment, in
 * stream order, then finish(); reconstruct the full tile afterwards
 * with reconstructTile(). A chunk with no payload skips straight to
 * finish() and decodes to zeros.
 */
class TileDecoder
{
  public:
    /**
     * @param geom The tile's shape (borrowed; see TileGeometry::of()).
     * @param magnitude Output, `width * height` entries, zeroed.
     * @param sign Output, `width * height` entries, zeroed.
     * @param lowPlane Output, `width * height` entries, written by
     *        finish().
     */
    TileDecoder(const TileGeometry &geom, uint32_t *magnitude,
                uint8_t *sign, uint8_t *lowPlane);

    /**
     * Initialize from the chunk's raw header byte (`maxPlane + 1`, the
     * first byte of its payload). Values above the bitplane
     * limit are clamped so a corrupt byte can never drive an
     * out-of-range bitplane shift.
     */
    void decodeHeaderByte(uint32_t maxPlanePlus1);

    /**
     * Decode exactly `passes` coding passes from `dec` (one segment);
     * stops early only when every plane is already decoded.
     */
    void decodePassRun(RangeDecoder &dec, int passes);

    /**
     * Write every coefficient's lowPlane — the lowest plane it has a
     * decoded bit of — for the passes decoded so far. It follows from
     * the pass state alone, by the rule TileEncoder::decoderState()
     * shares, so the decode loops never store it per bit. Call once,
     * after the chunk's last segment.
     */
    void finish();

  private:
    const TileGeometry &geom_;
    /// Borrowed views into the caller's tile buffers.
    uint32_t *magnitude_;
    uint8_t *sign_;
    uint8_t *lowPlane_; ///< Lowest plane with a decoded bit (finish()).
    /// Word-packed per-pixel state mirroring TileEncoder.
    std::vector<uint64_t> sigBits_;
    std::vector<uint64_t> visitedBits_;
    std::vector<uint64_t> refinableBits_;
    std::vector<uint64_t> dilation_;
    TileContexts ctx_;
    int maxPlane_;
    int nextPlane_;
    int nextPass_;

    void decodePass(RangeDecoder &dec, int plane, int pass);
    void beginPlane();
    void decodeSigPass(RangeDecoder &dec, int plane);
    void decodeRefinePass(RangeDecoder &dec, int plane);
    void decodeCleanupPass(RangeDecoder &dec, int plane);
};

/**
 * Dequantize + inverse DWT a full tile's decoded coefficients into
 * pixel space: each coefficient takes the midpoint of the planes below
 * its `lowPlane`.
 */
raster::Plane reconstructTile(int width, int height, int dwtLevels,
                              const uint32_t *magnitude,
                              const uint8_t *sign, const uint8_t *lowPlane);

/**
 * The coefficient state one tile decodes to, ahead of
 * reconstructTile(): per-coefficient magnitude bits, signs and lowest
 * decoded plane. Decoding fills it from the stream; encodeTile()
 * fills it from the encoder's own state (TileEncoder::decoderState()),
 * which for the stream the encoder returns is the same state bit for
 * bit.
 */
struct DecodedTile
{
    /** Zeroed buffers for a `width` x `height` tile. */
    DecodedTile(int width, int height);

    int width;
    int height;
    std::vector<uint32_t> magnitude;
    std::vector<uint8_t> sign;
    std::vector<uint8_t> lowPlane;

    /** reconstructTile() of this state. */
    raster::Plane reconstruct(int dwtLevels) const;
};

/**
 * Encode one tile completely, as a single self-contained job.
 *
 * Runs the DWT + quantization and codes the tile into one entropy
 * chunk behind its u32 length word — the tile's sub-chunk. The output
 * depends only on the tile pixels and the parameters, and the call
 * runs on the calling thread alone. Every call records one
 * `codec.transform_ns` and one `codec.entropy_chunk_ns` sample, with a
 * matching trace span for each.
 *
 * @param tile Pixel data, values in [0, 1].
 * @param dwtLevels Dyadic DWT levels.
 * @param byteBudget Byte budget of the chunk payload, checked before
 *        every pass as TileEncoder::encodePlanes() does.
 * @param reconstruction When non-null, receives the tile exactly as
 *        codec::decodeTile() would decode the returned sub-chunk,
 *        rebuilt from the encoder's coefficient state.
 * @return The tile's sub-chunk.
 */
std::vector<uint8_t>
encodeTile(const raster::Plane &tile, int dwtLevels, size_t byteBudget,
           raster::Plane *reconstruction = nullptr);

} // namespace earthplus::codec

#endif // EARTHPLUS_CODEC_TILE_CODER_HH

#include "codec/tile_coder.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>

#include "codec/dwt.hh"
#include "codec/kernels.hh"
#include "util/bytes.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace earthplus::codec {

namespace {

/**
 * Per-stage encode timers, resolved once per process. Registry entries
 * are leaked, so the references stay valid forever.
 */
struct StageMetrics
{
    telemetry::Histogram &transformNs =
        telemetry::histogram("codec.transform_ns");
    telemetry::Histogram &entropyChunkNs =
        telemetry::histogram("codec.entropy_chunk_ns");
};

StageMetrics &
stageMetrics()
{
    static StageMetrics m;
    return m;
}

/** Highest usable magnitude bitplane of the u32 magnitudes. */
constexpr int kMaxPlaneLimit = 30;

/** Words needed to pack one `width`-pixel row. */
int
packedWords(int width)
{
    return (width + 63) / 64;
}

/** All-ones over the bits a row's last word actually uses. */
uint64_t
lastWordMask(int width)
{
    int used = width % 64;
    return used == 0 ? ~0ull : ~0ull >> (64 - used);
}

/** packedWords() of a tile shape that must not be empty. */
int
shapeWords(int width, int height)
{
    EP_ASSERT(width > 0 && height > 0, "empty tile");
    return packedWords(width);
}

/**
 * The 8 low bits of `bits` spread one per byte: byte k of the result
 * (in memory order, little-endian) is bit k. Copies the byte into
 * every lane, keeps bit k in lane k, and turns each non-zero lane
 * into 1 with a carry that cannot leave its lane.
 */
uint64_t
spreadBits(uint64_t bits)
{
    const uint64_t lanes =
        (bits * 0x0101010101010101ull) & 0x8040201008040201ull;
    return ((lanes + 0x7F7F7F7F7F7F7F7Full) & 0x8080808080808080ull) >> 7;
}

/**
 * The decoder-equivalent lowPlane rule of docs/ARCHITECTURE.md, shared
 * by TileEncoder::decoderState() and TileDecoder::finish(). A chunk
 * stopped at plane P = `nextPlane` (-1 once every plane is coded)
 * after `nextPass` passes of it: pass 0 coded exactly the visited
 * coefficients and pass 1 the refinable ones, and planes above P were
 * coded for every coefficient. A coefficient coded in those passes
 * gets lowPlane P, every other one P + 1. `visited` and `refinable`
 * still describe plane P + 1 when `nextPass` is 0, so they are read
 * only when a pass of P ran.
 */
void
writeLowPlanes(int width, int rows, int nextPlane, int nextPass,
               const uint64_t *visited, const uint64_t *refinable,
               uint8_t *lowPlane)
{
    const int words = packedWords(width);
    const uint8_t above = static_cast<uint8_t>(nextPlane + 1);
    // Eight coefficients per store: `above` in every byte, minus each
    // byte's coded bit. No byte borrows — a coded bit means a pass of
    // plane nextPlane >= 0 ran, so `above` is at least 1.
    const uint64_t aboveBytes = 0x0101010101010101ull * above;
    for (int y = 0; y < rows; ++y) {
        uint8_t *lowRow =
            lowPlane + static_cast<size_t>(y) * static_cast<size_t>(width);
        for (int w = 0; w < words; ++w) {
            const size_t i = static_cast<size_t>(y) * words + w;
            uint64_t coded = 0;
            if (nextPass > 0)
                coded |= visited[i];
            if (nextPass > 1)
                coded |= refinable[i];
            const int x0 = w << 6;
            const int n = std::min(64, width - x0);
            int b = 0;
            for (; b + 8 <= n; b += 8) {
                const uint64_t v =
                    aboveBytes - spreadBits((coded >> b) & 0xFFu);
                std::memcpy(lowRow + x0 + b, &v, sizeof(v));
            }
            for (; b < n; ++b)
                lowRow[x0 + b] =
                    static_cast<uint8_t>(above - ((coded >> b) & 1u));
        }
    }
}

/**
 * Per-word snapshot of everything the neighbor count of one candidate
 * word needs. The coding loops keep these in registers across the
 * whole word: the range coder stores bytes through `uint8_t *`, which
 * aliases every array in the coder, so reading the words back from
 * memory after each coded bit would defeat the bitset representation.
 *
 * Correctness of the snapshot: while word `w` of row `y` is being
 * processed, `up` (row y-1) is final for this pass, `down` (row y+1)
 * and the right carry (word w+1) are untouched, and the left carry
 * (word w-1) was written back before this word started. Only `sig`
 * (word w itself) changes mid-word, and it is updated in place.
 */
struct NeighborWords
{
    uint64_t sig;        ///< Live significance of this word.
    uint64_t up;         ///< Row above (0 at the top border).
    uint64_t down;       ///< Row below (0 at the bottom border).
    uint64_t leftCarry;  ///< Bit 63 of word w-1 (left of bit 0).
    uint64_t rightCarry; ///< Bit 0 of word w+1 (right of bit 63).

    NeighborWords(const uint64_t *sigRow, const uint64_t *sigUp,
                  const uint64_t *sigDn, int w, int words)
        : sig(sigRow[w]), up(sigUp ? sigUp[w] : 0),
          down(sigDn ? sigDn[w] : 0),
          leftCarry(w > 0 ? sigRow[w - 1] >> 63 : 0),
          rightCarry(w + 1 < words ? sigRow[w + 1] & 1u : 0)
    {
    }

    /** Significant 4-neighbors of bit `b`, from the live snapshot. */
    int
    count(int b) const
    {
        const uint64_t left = (sig << 1) | leftCarry;
        const uint64_t right = (sig >> 1) | (rightCarry << 63);
        return static_cast<int>(((up >> b) & 1u) + ((down >> b) & 1u) +
                                ((left >> b) & 1u) + ((right >> b) & 1u));
    }
};

/** The run model of a zero run of `n` candidates, 1 <= n <= 64. */
int
runBucket(int n)
{
    return util::bitWidth(static_cast<uint32_t>(n)) - 1;
}

/**
 * Raw bits that name one of `n` run candidates: ceil(log2 n), so a
 * one-candidate run codes none.
 */
int
positionBits(int n)
{
    return util::bitWidth(static_cast<uint32_t>(n - 1));
}

/** The packed per-pixel state one significance scan works over. */
struct ScanGrid
{
    const TileGeometry &geom;
    uint64_t *sig;
    uint64_t *visited;
    uint64_t *dilation; ///< Per-row scratch, geom.wordsPerRow entries.
    TileContexts *ctx;
};

/**
 * Word-scan driver shared by the significance-propagation (pass 0)
 * and cleanup (pass 2) scans of the encoder AND the decoder — the
 * candidate evolution is the byte-identity-critical part, so it
 * exists exactly once. `Coder` supplies the per-coefficient actions
 * that differ between the four call sites:
 *
 *   int  code(size_t i, int y, int w, int b, BitModel &model);
 *        Code the significance bit of coefficient i under `model`
 *        and return it.
 *   int  codeRun(int y, int w, uint64_t run, BitModel &model);
 *        Code whether the candidates in `run` (bits of word w of row
 *        y) hold a 1, under `model`, and if so the position of the
 *        first 1 among them (the run grammar below); return that one's
 *        bit index, or -1 when every one is 0.
 *   void significant(size_t i);
 *        Coefficient i just turned significant: handle its sign (and,
 *        on the decoder, its magnitude bit).
 *
 * Both arguments are taken by value and the coder is returned: a pass
 * runs on local copies of the grid and of the coder state (the range
 * coder inside `Coder`), which the caller writes back at the pass end.
 * Nothing the scan stores can alias a local whose address never
 * escapes, so the coder state stays in registers across the pass.
 *
 * Pass 0 (kCleanup = false) visits insignificant coefficients with at
 * least one significant neighbor — the dilation row masked to
 * `~significant` — marking each visited, and a coefficient turning
 * significant recruits its right neighbor into the live candidate
 * word (or the next word's dilation bit), reproducing the per-pixel
 * raster scan's left-to-right propagation wave exactly. Pass 2
 * (kCleanup = true) visits everything still insignificant and
 * unvisited; there the dilation word only gates the neighbor count
 * (isolated coefficients take the zero-neighbor context without
 * touching their neighbors), and new significance extends the gate
 * instead of the candidate set.
 *
 * Pass 2 codes its ungated candidates as zero runs: an ungated
 * candidate and the candidates after it in its word form one run until
 * the next gated candidate, the next orientation edge, the word end or
 * the first coefficient that codes as 1 — whose new significance gates
 * its right neighbor, so the run would have ended there anyway. A run
 * of n candidates, n known to both sides from the bitsets, codes one
 * "holds a 1" decision under TileContexts::run[orient][runBucket(n)]
 * and, when it does, the index of the first 1 among the candidates in
 * positionBits(n) raw bits, most significant first.
 */
template <bool kCleanup, typename Coder>
Coder
runSigScan(ScanGrid g, Coder coder)
{
    const int W = g.geom.wordsPerRow;
    const int height = g.geom.height;
    const uint64_t lastMask = lastWordMask(g.geom.width);
    uint64_t *nb = g.dilation;
    for (int y = 0; y < height; ++y) {
        uint64_t *sigRow = g.sig + static_cast<size_t>(y) * W;
        const uint64_t *sigUp = y > 0 ? sigRow - W : nullptr;
        const uint64_t *sigDn = y + 1 < height ? sigRow + W : nullptr;
        uint64_t *visRow = g.visited + static_cast<size_t>(y) * W;
        dilateRow(sigUp, sigRow, sigDn, W, nb);
        size_t rowBase =
            static_cast<size_t>(y) * static_cast<size_t>(g.geom.width);
        const uint8_t *orientRow = g.geom.orient.data() + rowBase;
        for (int w = 0; w < W; ++w) {
            const uint64_t valid = w == W - 1 ? lastMask : ~0ull;
            uint64_t m = kCleanup ? ~sigRow[w] & ~visRow[w] & valid
                                  : nb[w] & ~sigRow[w] & valid;
            if (m == 0)
                continue;
            NeighborWords nw(sigRow, sigUp, sigDn, w, W);
            uint64_t nbW = nb[w];
            uint64_t vis = visRow[w];
            const uint64_t edgeW =
                kCleanup ? g.geom.edges[static_cast<size_t>(y) * W + w] : 0;
            do {
                int b = util::countTrailingZeros(m);
                const uint8_t orient = orientRow[(w << 6) + b];
                int bit;
                if (kCleanup && ((nbW >> b) & 1u) == 0) {
                    // Zero run from b up to the next gated candidate
                    // or orientation edge.
                    const uint64_t stops =
                        ((m & nbW) | edgeW) & (~1ull << b);
                    const uint64_t run =
                        stops != 0 ? m & ((stops & (0 - stops)) - 1) : m;
                    b = coder.codeRun(
                        y, w, run,
                        g.ctx->run[orient][runBucket(util::popCount(run))]);
                    if (b < 0) {
                        m &= ~run;
                        continue;
                    }
                    m &= ~((2ull << b) - 1);
                    bit = 1;
                } else {
                    m &= m - 1;
                    int nn = nw.count(b);
                    if (!kCleanup)
                        vis |= 1ull << b;
                    // A candidate coded here has a significant
                    // neighbor: pass 0's come from the dilation, and
                    // pass 2 gives the isolated ones to codeRun().
                    BitModel &model =
                        g.ctx->significance[orient][static_cast<size_t>(
                            (nn < 3 ? nn : 3) - 1)];
                    bit = coder.code(
                        rowBase + static_cast<size_t>((w << 6) + b), y, w,
                        b, model);
                }
                if (bit) {
                    coder.significant(rowBase +
                                      static_cast<size_t>((w << 6) + b));
                    nw.sig |= 1ull << b;
                    if (b < 63) {
                        if (kCleanup)
                            nbW |= 1ull << (b + 1);
                        else
                            m |= (1ull << (b + 1)) & ~nw.sig & valid;
                    } else if (w + 1 < W) {
                        nb[w + 1] |= 1ull;
                    }
                }
            } while (m != 0);
            sigRow[w] = nw.sig;
            if (!kCleanup)
                visRow[w] = vis;
        }
    }
    return coder;
}

/**
 * Decoder-side scan actions: bits come from the stream, through the
 * pass's own copy of the range decoder.
 */
struct DecoderScan
{
    RangeDecoder dec;
    uint32_t *magnitude;
    uint8_t *sign;
    int plane;

    int
    code(size_t, int, int, int, BitModel &model)
    {
        return dec.decodeBit(model);
    }

    int
    codeRun(int, int, uint64_t run, BitModel &model)
    {
        if (!dec.decodeBit(model))
            return -1;
        const int n = util::popCount(run);
        int k = 0;
        for (int i = positionBits(n); i > 0; --i)
            k = (k << 1) | dec.decodeBitRaw();
        // Only a corrupt segment names a k past the run; clamp it to
        // the run's last candidate.
        for (k = std::min(k, n - 1); k > 0; --k)
            run &= run - 1;
        return util::countTrailingZeros(run);
    }

    void
    significant(size_t i)
    {
        magnitude[i] |= 1u << plane;
        sign[i] = static_cast<uint8_t>(dec.decodeBitRaw());
    }
};

} // anonymous namespace

TileGeometry::TileGeometry(int width, int height, int levels)
    : width(width), height(height), wordsPerRow(shapeWords(width, height)),
      orient(subbandOrientation(width, height, levels)),
      edges(static_cast<size_t>(wordsPerRow) * static_cast<size_t>(height),
            0)
{
    for (int y = 0; y < height; ++y) {
        const uint8_t *row = orient.data() + static_cast<size_t>(y) *
                                                 static_cast<size_t>(width);
        uint64_t *edgeRow =
            edges.data() + static_cast<size_t>(y) * wordsPerRow;
        for (int x = 1; x < width; ++x)
            if ((x & 63) != 0 && row[x] != row[x - 1])
                edgeRow[x >> 6] |= 1ull << (x & 63);
    }
}

std::shared_ptr<const TileGeometry>
TileGeometry::of(int width, int height, int levels)
{
    using Key = std::tuple<int, int, int>;
    static std::mutex mutex;
    // Leaked, like the telemetry registry: pool threads may still code
    // tiles while static destructors run.
    static auto *shapes =
        new std::map<Key, std::shared_ptr<const TileGeometry>>();
    std::lock_guard<std::mutex> lock(mutex);
    auto it = shapes->find(Key{width, height, levels});
    if (it != shapes->end())
        return it->second;
    auto g = std::make_shared<const TileGeometry>(width, height, levels);
    if (shapes->size() < kSharedShapes)
        shapes->emplace(Key{width, height, levels}, g);
    return g;
}

TileCoefficients
transformTile(const raster::Plane &tile, int dwtLevels)
{
    TileCoefficients out;
    out.geometry = TileGeometry::of(tile.width(), tile.height(), dwtLevels);
    const int width = tile.width();
    const int height = tile.height();
    size_t n = static_cast<size_t>(width) * static_cast<size_t>(height);
    out.magnitude.assign(n, 0);
    out.sign.assign(n, 0);

    // Pixel conversion, quantization and the sign/magnitude split run
    // through the dispatched kernel table; every level shares the
    // scalar single-precision dataflow, so the quantized coefficients
    // (and therefore the encoded stream) do not depend on the level.
    const kernels::KernelTable &K = kernels::active();
    std::vector<float> coeffs(n);
    K.centerF(tile.row(0), n, coeffs.data());
    forwardDwt97(coeffs, width, height, dwtLevels);
    // Deadzone scalar quantizer.
    float inv = static_cast<float>(1.0 / kQuantStep);
    K.quantF32(coeffs.data(), n, inv, out.magnitude.data(),
               out.sign.data());
    return out;
}

/** Encoder-side scan actions: bits come from the plane-bit mask. */
struct TileEncoder::EncoderScan
{
    RangeEncoder &enc;
    const uint64_t *planeBits;
    int words;
    const uint8_t *sign;

    int
    code(size_t, int y, int w, int b, BitModel &model)
    {
        int bit = static_cast<int>(
            (planeBits[static_cast<size_t>(y) * words + w] >> b) & 1u);
        enc.encodeBit(model, bit);
        return bit;
    }

    int
    codeRun(int y, int w, uint64_t run, BitModel &model)
    {
        const uint64_t ones =
            planeBits[static_cast<size_t>(y) * words + w] & run;
        enc.encodeBit(model, ones != 0);
        if (ones == 0)
            return -1;
        const int b = util::countTrailingZeros(ones);
        const int k = util::popCount(run & ((1ull << b) - 1));
        for (int i = positionBits(util::popCount(run)) - 1; i >= 0; --i)
            enc.encodeBitRaw((k >> i) & 1);
        return b;
    }

    void significant(size_t i) { enc.encodeBitRaw(sign[i]); }
};

TileEncoder::TileEncoder(const TileCoefficients &coeffs)
    : geom_(*coeffs.geometry), magnitude_(coeffs.magnitude.data()),
      sign_(coeffs.sign.data()), maxPlane_(-1)
{
    size_t n = static_cast<size_t>(geom_.width) *
               static_cast<size_t>(geom_.height);
    size_t nWords = static_cast<size_t>(geom_.wordsPerRow) *
                    static_cast<size_t>(geom_.height);
    sigBits_.assign(nWords, 0);
    visitedBits_.assign(nWords, 0);
    refinableBits_.assign(nWords, 0);
    planeBits_.assign(nWords, 0);
    dilation_.assign(static_cast<size_t>(geom_.wordsPerRow), 0);

    const kernels::KernelTable &K = kernels::active();
    maxPlane_ = util::bitWidth(K.maxU32(magnitude_, n)) - 1;
    EP_ASSERT(maxPlane_ <= kMaxPlaneLimit,
              "coefficient magnitude overflows bitplane header (%d)",
              maxPlane_);
    nextPlane_ = maxPlane_;
    nextPass_ = 0;
}

void
TileEncoder::beginPlane(int plane)
{
    // Refinement (pass 1) covers exactly the coefficients significant
    // before this plane's pass 0 runs — the snapshot replaces the old
    // per-pixel "plane where it turned significant" map.
    std::copy(sigBits_.begin(), sigBits_.end(), refinableBits_.begin());
    std::fill(visitedBits_.begin(), visitedBits_.end(), 0);
    const kernels::KernelTable &K = kernels::active();
    for (int y = 0; y < geom_.height; ++y)
        K.bitplaneMask(magnitude_ + static_cast<size_t>(y) * geom_.width,
                       static_cast<size_t>(geom_.width), plane,
                       planeBits_.data() +
                           static_cast<size_t>(y) * geom_.wordsPerRow);
}

// The pass bodies are `inline` so the compiler folds them into
// encodePlanes(), their only caller, which keeps the per-bit hot loop
// free of calls.
inline void
TileEncoder::encodeSigPass(RangeEncoder &enc)
{
    runSigScan<false>(ScanGrid{geom_, sigBits_.data(), visitedBits_.data(),
                               dilation_.data(), &ctx_},
                      EncoderScan{enc, planeBits_.data(), geom_.wordsPerRow,
                                  sign_});
}

inline void
TileEncoder::encodeRefinePass(RangeEncoder &enc)
{
    BitModel model = ctx_.refinement;
    const size_t nWords = refinableBits_.size();
    for (size_t w = 0; w < nWords; ++w) {
        uint64_t m = refinableBits_[w];
        const uint64_t bitsWord = planeBits_[w];
        while (m != 0) {
            int b = util::countTrailingZeros(m);
            m &= m - 1;
            enc.encodeBit(model, static_cast<int>((bitsWord >> b) & 1u));
        }
    }
    ctx_.refinement = model;
}

inline void
TileEncoder::encodeCleanupPass(RangeEncoder &enc)
{
    runSigScan<true>(ScanGrid{geom_, sigBits_.data(), visitedBits_.data(),
                              dilation_.data(), &ctx_},
                     EncoderScan{enc, planeBits_.data(), geom_.wordsPerRow,
                                 sign_});
}

inline void
TileEncoder::encodePass(RangeEncoder &enc, int plane, int pass)
{
    if (pass == 0) {
        beginPlane(plane);
        encodeSigPass(enc);
    } else if (pass == 1) {
        encodeRefinePass(enc);
    } else {
        encodeCleanupPass(enc);
    }
}

void
TileEncoder::encodePlanes(std::vector<uint8_t> &payload, size_t byteLimit)
{
    // Checked before every pass: the bytes the payload holds if the
    // open segment ended now — the segments already emitted, the open
    // segment's framing word and the bytes its coder has written —
    // must still be under the limit. Each segment holds the passes of
    // one plane. The segment is coded in place behind its framing
    // word, which is filled in once the flushed length is known.
    while (nextPlane_ >= 0 &&
           payload.size() + sizeof(uint32_t) < byteLimit) {
        const size_t wordPos = payload.size();
        const size_t segStart = wordPos + sizeof(uint32_t);
        payload.resize(segStart);
        RangeEncoder enc(payload);
        const int plane = nextPlane_;
        int passes = 0;
        do {
            encodePass(enc, plane, nextPass_);
            ++nextPass_;
            ++passes;
            if (nextPass_ == 3) {
                nextPass_ = 0;
                --nextPlane_;
            }
        } while (nextPlane_ == plane &&
                 segStart + enc.bytesWritten() < byteLimit);
        enc.flush();
        const size_t len = payload.size() - segStart;
        EP_ASSERT(len < (1u << 30) && passes <= 3,
                  "segment overflows its framing word");
        const uint32_t word = static_cast<uint32_t>(len << 2) |
                              static_cast<uint32_t>(passes - 1);
        std::memcpy(payload.data() + wordPos, &word, sizeof(word));
    }
}

void
TileEncoder::decoderState(uint32_t *magnitude, uint8_t *sign,
                          uint8_t *lowPlane) const
{
    // A coefficient's decoded bits are exactly its magnitude bits down
    // to its lowPlane.
    writeLowPlanes(geom_.width, geom_.height, nextPlane_, nextPass_,
                   visitedBits_.data(), refinableBits_.data(), lowPlane);
    const size_t n = static_cast<size_t>(geom_.width) *
                     static_cast<size_t>(geom_.height);
    for (size_t i = 0; i < n; ++i) {
        const uint32_t m = magnitude_[i] & (~0u << lowPlane[i]);
        magnitude[i] = m;
        sign[i] = m != 0 ? sign_[i] : 0;
    }
}

TileDecoder::TileDecoder(const TileGeometry &geom, uint32_t *magnitude,
                         uint8_t *sign, uint8_t *lowPlane)
    : geom_(geom), magnitude_(magnitude), sign_(sign), lowPlane_(lowPlane),
      maxPlane_(-1), nextPlane_(-1), nextPass_(0)
{
    size_t nWords = static_cast<size_t>(geom_.wordsPerRow) *
                    static_cast<size_t>(geom_.height);
    sigBits_.assign(nWords, 0);
    visitedBits_.assign(nWords, 0);
    refinableBits_.assign(nWords, 0);
    dilation_.assign(static_cast<size_t>(geom_.wordsPerRow), 0);
}

void
TileDecoder::decodeHeaderByte(uint32_t maxPlanePlus1)
{
    uint32_t v = std::min(
        maxPlanePlus1, static_cast<uint32_t>(kMaxPlaneLimit + 1));
    maxPlane_ = static_cast<int>(v) - 1;
    nextPlane_ = maxPlane_;
    nextPass_ = 0;
}

void
TileDecoder::beginPlane()
{
    std::copy(sigBits_.begin(), sigBits_.end(), refinableBits_.begin());
    std::fill(visitedBits_.begin(), visitedBits_.end(), 0);
}

// Every pass loop runs on local copies of the coder state — the range
// decoder, and in refinement its one model — and writes them back at
// the pass end, so the per-bit arithmetic never round-trips through
// memory that the loop's stores might alias.
void
TileDecoder::decodeSigPass(RangeDecoder &dec, int plane)
{
    dec = runSigScan<false>(ScanGrid{geom_, sigBits_.data(),
                                     visitedBits_.data(), dilation_.data(),
                                     &ctx_},
                            DecoderScan{dec, magnitude_, sign_,
                                        plane})
              .dec;
}

void
TileDecoder::decodeRefinePass(RangeDecoder &dec, int plane)
{
    RangeDecoder d = dec;
    BitModel model = ctx_.refinement;
    const int W = geom_.wordsPerRow;
    for (int y = 0; y < geom_.height; ++y) {
        const uint64_t *refRow =
            refinableBits_.data() + static_cast<size_t>(y) * W;
        uint32_t *magRow =
            magnitude_ +
            static_cast<size_t>(y) * static_cast<size_t>(geom_.width);
        for (int w = 0; w < W; ++w) {
            uint64_t m = refRow[w];
            while (m != 0) {
                int b = util::countTrailingZeros(m);
                m &= m - 1;
                magRow[(w << 6) + b] |=
                    static_cast<uint32_t>(d.decodeBit(model)) << plane;
            }
        }
    }
    ctx_.refinement = model;
    dec = d;
}

void
TileDecoder::decodeCleanupPass(RangeDecoder &dec, int plane)
{
    dec = runSigScan<true>(ScanGrid{geom_, sigBits_.data(),
                                    visitedBits_.data(), dilation_.data(),
                                    &ctx_},
                           DecoderScan{dec, magnitude_, sign_,
                                       plane})
              .dec;
}

void
TileDecoder::decodePass(RangeDecoder &dec, int plane, int pass)
{
    if (pass == 0) {
        beginPlane();
        decodeSigPass(dec, plane);
    } else if (pass == 1) {
        decodeRefinePass(dec, plane);
    } else {
        decodeCleanupPass(dec, plane);
    }
}

void
TileDecoder::decodePassRun(RangeDecoder &dec, int passes)
{
    // Segments carry their pass count in the framing word, so no
    // in-stream continue bits exist: decode exactly what is framed.
    for (int i = 0; i < passes && nextPlane_ >= 0; ++i) {
        decodePass(dec, nextPlane_, nextPass_);
        ++nextPass_;
        if (nextPass_ == 3) {
            nextPass_ = 0;
            --nextPlane_;
        }
    }
}

void
TileDecoder::finish()
{
    writeLowPlanes(geom_.width, geom_.height, nextPlane_, nextPass_,
                   visitedBits_.data(), refinableBits_.data(), lowPlane_);
}

raster::Plane
reconstructTile(int width, int height, int dwtLevels,
                const uint32_t *magnitude, const uint8_t *sign,
                const uint8_t *lowPlane)
{
    size_t n = static_cast<size_t>(width) * static_cast<size_t>(height);
    raster::Plane out(width, height);
    const kernels::KernelTable &K = kernels::active();

    // Midpoint reconstruction: for coefficient i the bits above
    // lowPlane[i] are exact, so |c| lies in [m, m + 2^lowPlane[i])
    // quantizer steps; the dequantizer adds half of that uncertainty
    // when significant (and decodes zero otherwise).
    std::vector<float> coeffs(n);
    K.dequant97(magnitude, sign, lowPlane, n,
                static_cast<float>(kQuantStep), coeffs.data());
    inverseDwt97(coeffs, width, height, dwtLevels);
    K.uncenterClampF(coeffs.data(), n, 0.0f, 1.0f, out.row(0));
    return out;
}

DecodedTile::DecodedTile(int width, int height)
    : width(width), height(height)
{
    size_t n = static_cast<size_t>(width) * static_cast<size_t>(height);
    magnitude.assign(n, 0);
    sign.assign(n, 0);
    lowPlane.assign(n, 0);
}

raster::Plane
DecodedTile::reconstruct(int dwtLevels) const
{
    return reconstructTile(width, height, dwtLevels, magnitude.data(),
                           sign.data(), lowPlane.data());
}

std::vector<uint8_t>
encodeTile(const raster::Plane &tile, int dwtLevels, size_t byteBudget,
           raster::Plane *reconstruction)
{
    TileCoefficients coeffs;
    {
        telemetry::TraceSpan span("codec.transform", "codec");
        telemetry::ScopedTimer timer(stageMetrics().transformNs);
        coeffs = transformTile(tile, dwtLevels);
    }
    // The chunk is coded in place behind its u32 length word, so the
    // limit on the sub-chunk is the payload budget plus the word,
    // saturated. Everything the chunk writes counts against it: the
    // header byte, every segment's framing word and its flushed body.
    constexpr size_t kWord = sizeof(uint32_t);
    const size_t limit = byteBudget > SIZE_MAX - kWord
        ? SIZE_MAX
        : byteBudget + kWord;
    std::vector<uint8_t> sub(kWord + 1);
    // Sized only when the caller asks for the reconstruction.
    DecodedTile decoded(reconstruction ? tile.width() : 0,
                        reconstruction ? tile.height() : 0);
    {
        telemetry::TraceSpan span("codec.entropy_chunk", "codec");
        telemetry::ScopedTimer timer(stageMetrics().entropyChunkNs);
        TileEncoder coder(coeffs);
        sub[kWord] = static_cast<uint8_t>(coder.maxPlane() + 1);
        coder.encodePlanes(sub, limit);
        if (reconstruction)
            coder.decoderState(decoded.magnitude.data(),
                               decoded.sign.data(), decoded.lowPlane.data());
    }
    const uint32_t ecLen = static_cast<uint32_t>(sub.size() - kWord);
    std::memcpy(sub.data(), &ecLen, kWord);
    if (reconstruction) {
        telemetry::TraceSpan span("codec.reconstruct_tile", "codec");
        *reconstruction = decoded.reconstruct(dwtLevels);
    }
    return sub;
}

} // namespace earthplus::codec

/**
 * @file
 * Adaptive binary range coder (arithmetic coding backend).
 *
 * LZMA-style binary range coder with 11-bit adaptive probability models.
 * This is the entropy-coding engine underneath the tile bitplane coder;
 * together they play the role JPEG-2000's MQ-coder plays for Kakadu in
 * the paper.
 *
 * Two decisions exist: an adaptive bit under a BitModel and a raw bit
 * at probability 1/2. The per-bit paths live in this header so the
 * bitplane pass loops inline them and keep the coder state (low/range/
 * code and the stream pointer) in registers; they are written
 * branch-light — the bit decision folds into masks, the probability
 * update into a conditional-move — and bytes move through a
 * grow-amortized raw pointer into the output vector instead of
 * per-byte push_back. `tests/golden_stream_test.cc` pins the bytes.
 */

#ifndef EARTHPLUS_CODEC_RANGECODER_HH
#define EARTHPLUS_CODEC_RANGECODER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace earthplus::codec {

/** Renormalization threshold shared by encoder and decoder. */
constexpr uint32_t kRangeTop = 1u << 24;

/**
 * Adaptive probability state for one binary context.
 *
 * 11-bit probability of the next bit being 0, updated with shift-5
 * exponential decay (the LZMA adaptation rule).
 */
class BitModel
{
  public:
    BitModel() : prob_(kOneHalf) {}

    /** Probability numerator (out of 2^11) that the next bit is 0. */
    uint16_t prob() const { return prob_; }

    /**
     * Move the probability toward the coded `bit` (0 or 1). Both
     * deltas are computed up front and selected by mask: a ternary
     * select here is compiled into a branch on the bit, which the
     * predictor misses about as often as the bit is random.
     */
    void
    update(uint32_t bit)
    {
        const uint32_t mask = 0u - bit;
        const uint32_t p = prob_;
        const uint32_t d0 = (kOne - p) >> kMoveBits;
        const uint32_t d1 = p >> kMoveBits;
        prob_ = static_cast<uint16_t>(p + (d0 & ~mask) - (d1 & mask));
    }

    /** Total probability denominator exponent. */
    static constexpr int kModelBits = 11;
    /** Probability denominator (2^11). */
    static constexpr uint16_t kOne = 1u << kModelBits;
    /** Initial (maximum-entropy) probability. */
    static constexpr uint16_t kOneHalf = kOne / 2;
    /** Adaptation rate exponent. */
    static constexpr int kMoveBits = 5;

  private:
    uint16_t prob_;
};

/**
 * Binary range encoder writing to a byte vector.
 *
 * The destination vector is used as raw storage while encoding (its
 * size() overshoots the bytes actually written); flush() trims it to
 * the exact stream, so the vector must only be read after flush().
 * Holds raw pointers into the vector: not copyable, and the vector
 * must not be touched by the caller between construction and flush().
 */
class RangeEncoder
{
  public:
    /** @param out Destination byte stream (appended to). */
    explicit RangeEncoder(std::vector<uint8_t> &out);

    RangeEncoder(const RangeEncoder &) = delete;
    RangeEncoder &operator=(const RangeEncoder &) = delete;

    /** Encode one bit under an adaptive model. */
    void
    encodeBit(BitModel &model, int bit)
    {
        uint32_t b = static_cast<uint32_t>(bit != 0);
        uint32_t bound = (range_ >> BitModel::kModelBits) * model.prob();
        uint32_t mask = 0u - b;
        low_ += bound & mask;
        range_ = bound + ((range_ - 2 * bound) & mask);
        model.update(b);
        if (range_ < kRangeTop)
            normalize();
    }

    /** Encode one bit with fixed probability 1/2 (no model). */
    void
    encodeBitRaw(int bit)
    {
        range_ >>= 1;
        low_ += range_ & (0u - static_cast<uint32_t>(bit != 0));
        if (range_ < kRangeTop)
            normalize();
    }

    /**
     * Flush the coder state and trim the destination vector to the
     * bytes actually written. Must be called exactly once at the end of
     * a chunk; after flushing, the encoder must not be reused.
     */
    void flush();

    /**
     * Bytes emitted so far (grows as the stream is produced); after
     * flush(), the final stream length.
     */
    size_t
    bytesWritten() const
    {
        return flushed_ ? finalBytes_
                        : static_cast<size_t>(ptr_ - base_);
    }

  private:
    std::vector<uint8_t> &out_;
    size_t start_;      ///< out_.size() at construction.
    size_t finalBytes_; ///< Stream length, recorded by flush().
    uint8_t *base_;     ///< &out_[start_] (null until first grow).
    uint8_t *ptr_;      ///< Next write position.
    uint8_t *limit_;    ///< End of the grown storage region.
    uint64_t low_;
    uint32_t range_;
    uint8_t cache_;
    uint64_t cacheSize_;
    bool flushed_;

    /** Grow out_ so at least `need` more bytes fit; cold path. */
    void grow(uint64_t need);

    void
    shiftLow()
    {
        if (static_cast<uint32_t>(low_ >> 32) != 0 ||
            static_cast<uint32_t>(low_) < 0xFF000000u) {
            uint8_t carry = static_cast<uint8_t>(low_ >> 32);
            uint64_t run = cacheSize_;
            if (static_cast<uint64_t>(limit_ - ptr_) < run)
                grow(run);
            uint8_t *p = ptr_;
            *p++ = static_cast<uint8_t>(cache_ + carry);
            uint8_t fill = static_cast<uint8_t>(0xFFu + carry);
            while (--run != 0)
                *p++ = fill;
            ptr_ = p;
            cache_ = static_cast<uint8_t>(low_ >> 24);
            cacheSize_ = 0;
        }
        ++cacheSize_;
        low_ = (low_ & 0x00FFFFFFu) << 8;
    }

    void
    normalize()
    {
        do {
            range_ <<= 8;
            shiftLow();
        } while (range_ < kRangeTop);
    }
};

/**
 * Binary range decoder reading from a byte buffer.
 *
 * Reads past the end of the buffer yield zero bytes, so decoding a
 * truncated stream degrades gracefully instead of crashing.
 */
class RangeDecoder
{
  public:
    /**
     * @param data Pointer to the chunk produced by RangeEncoder.
     * @param size Chunk size in bytes.
     */
    RangeDecoder(const uint8_t *data, size_t size);

    /** Decode one bit under an adaptive model. */
    int
    decodeBit(BitModel &model)
    {
        uint32_t bound = (range_ >> BitModel::kModelBits) * model.prob();
        uint32_t mask = 0u - static_cast<uint32_t>(code_ >= bound);
        code_ -= bound & mask;
        range_ = bound + ((range_ - 2 * bound) & mask);
        model.update(mask & 1u);
        if (range_ < kRangeTop)
            normalize();
        return static_cast<int>(mask & 1u);
    }

    /** Decode one raw (probability 1/2) bit. */
    int
    decodeBitRaw()
    {
        range_ >>= 1;
        uint32_t mask = 0u - static_cast<uint32_t>(code_ >= range_);
        code_ -= range_ & mask;
        if (range_ < kRangeTop)
            normalize();
        return static_cast<int>(mask & 1u);
    }

    /** Bytes consumed so far. */
    size_t
    bytesRead() const
    {
        return static_cast<size_t>(ptr_ - begin_);
    }

  private:
    const uint8_t *begin_;
    const uint8_t *ptr_;
    const uint8_t *end_;
    uint32_t range_;
    uint32_t code_;

    uint8_t
    nextByte()
    {
        return ptr_ != end_ ? *ptr_++ : 0;
    }

    void
    normalize()
    {
        do {
            range_ <<= 8;
            code_ = (code_ << 8) | nextByte();
        } while (range_ < kRangeTop);
    }
};

} // namespace earthplus::codec

#endif // EARTHPLUS_CODEC_RANGECODER_HH

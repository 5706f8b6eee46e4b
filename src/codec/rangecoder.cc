#include "codec/rangecoder.hh"

#include <algorithm>

#include "util/logging.hh"

namespace earthplus::codec {

RangeEncoder::RangeEncoder(std::vector<uint8_t> &out)
    : out_(out), start_(out.size()), finalBytes_(0), base_(nullptr),
      ptr_(nullptr), limit_(nullptr), low_(0), range_(0xFFFFFFFFu),
      cache_(0), cacheSize_(1), flushed_(false)
{
}

void
RangeEncoder::grow(uint64_t need)
{
    // Every byte emitted after flush() lands here first (flush nulled
    // the pointers), so the old per-bit "encode after flush" assert
    // lives in this cold path now at zero hot-path cost. Post-flush
    // encodes too short to renormalize out a byte are not trapped —
    // they corrupt nothing, the bits just never reach the stream.
    EP_ASSERT(!flushed_, "encode after flush");
    size_t written = bytesWritten();
    size_t cap = out_.size() - start_;
    size_t newCap =
        std::max<size_t>(cap * 2, written + static_cast<size_t>(need) + 64);
    out_.resize(start_ + newCap);
    base_ = out_.data() + start_;
    ptr_ = base_ + written;
    limit_ = out_.data() + out_.size();
}

void
RangeEncoder::flush()
{
    EP_ASSERT(!flushed_, "double flush");
    for (int i = 0; i < 5; ++i)
        shiftLow();
    // Trim the grow-amortized overshoot: from here on the vector's
    // size is the exact stream length again.
    finalBytes_ = bytesWritten();
    out_.resize(start_ + finalBytes_);
    base_ = ptr_ = limit_ = nullptr;
    flushed_ = true;
}

RangeDecoder::RangeDecoder(const uint8_t *data, size_t size)
    : begin_(data), ptr_(data), end_(data + size), range_(0xFFFFFFFFu),
      code_(0)
{
    // The first byte emitted by the encoder is always 0 (initial cache);
    // consume 5 bytes to fill the code register, mirroring flush().
    for (int i = 0; i < 5; ++i)
        code_ = (code_ << 8) | nextByte();
}

} // namespace earthplus::codec

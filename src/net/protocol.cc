#include "net/protocol.hh"

#include <cstring>

#include "util/bytes.hh"
#include "util/crc32.hh"

namespace earthplus::net {

namespace {

/** Append the 16-byte header for an already-built body. */
void
appendHeader(std::vector<uint8_t> &out, uint32_t magic, uint32_t version,
             const uint8_t *body, size_t bodyLen)
{
    util::appendPod(out, magic);
    util::appendPod(out, version);
    util::appendPod(out, static_cast<uint32_t>(bodyLen));
    util::appendPod(out, util::crc32(body, bodyLen));
}

bool
knownMagic(uint32_t magic)
{
    return magic == kHelloMagic || magic == kQueryMagic ||
           magic == kResultMagic;
}

} // anonymous namespace

void
FrameReader::feed(const uint8_t *data, size_t size)
{
    if (error_ != FrameError::None || size == 0)
        return;
    buf_.insert(buf_.end(), data, data + size);
}

bool
FrameReader::next(Frame &out)
{
    if (error_ != FrameError::None)
        return false;
    if (buffered() < kFrameHeaderBytes)
        return false;
    const uint8_t *p = buf_.data() + pos_;
    uint32_t magic = util::readPodAt<uint32_t>(p, 0);
    uint32_t version = util::readPodAt<uint32_t>(p, 4);
    uint32_t bodyLen = util::readPodAt<uint32_t>(p, 8);
    uint32_t bodyCrc = util::readPodAt<uint32_t>(p, 12);
    // Validate the prefix before waiting for (or allocating) the
    // body: a corrupt length must not make us buffer gigabytes.
    if (!knownMagic(magic)) {
        error_ = FrameError::BadMagic;
        return false;
    }
    if (bodyLen > kMaxBodyBytes) {
        error_ = FrameError::BadLength;
        return false;
    }
    if (buffered() < kFrameHeaderBytes + bodyLen)
        return false;
    const uint8_t *body = p + kFrameHeaderBytes;
    if (util::crc32(body, bodyLen) != bodyCrc) {
        error_ = FrameError::BadCrc;
        return false;
    }
    out.magic = magic;
    out.version = version;
    out.body.assign(body, body + bodyLen);
    pos_ += kFrameHeaderBytes + bodyLen;
    // Compact: drop consumed bytes once everything buffered has been
    // handed out (the steady state), or when the dead prefix grows
    // past a frame's worth of slack.
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    } else if (pos_ > (1u << 20)) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<ptrdiff_t>(pos_));
        pos_ = 0;
    }
    return true;
}

std::vector<uint8_t>
encodeHello(uint32_t version)
{
    std::vector<uint8_t> out;
    out.reserve(kFrameHeaderBytes);
    appendHeader(out, kHelloMagic, version, nullptr, 0);
    return out;
}

std::vector<uint8_t>
encodeQuery(uint64_t requestId, const ground::TileQuery &query)
{
    std::vector<uint8_t> body;
    body.reserve(kQueryBodyBytes);
    util::appendPod(body, requestId);
    util::appendPod(body, static_cast<int32_t>(query.locationId));
    util::appendPod(body, static_cast<int32_t>(query.band));
    util::appendPod(body, query.day);
    util::appendPod(body, static_cast<int32_t>(query.x0));
    util::appendPod(body, static_cast<int32_t>(query.y0));
    util::appendPod(body, static_cast<int32_t>(query.width));
    util::appendPod(body, static_cast<int32_t>(query.height));
    util::appendPod(body, static_cast<int32_t>(query.quality));

    std::vector<uint8_t> out;
    out.reserve(kFrameHeaderBytes + body.size());
    appendHeader(out, kQueryMagic, kProtocolVersion, body.data(),
                 body.size());
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

std::vector<uint8_t>
encodeResult(uint64_t requestId, const ground::TileResult &result)
{
    bool withPixels = result.ok() && !result.pixels.empty();
    std::vector<uint8_t> body;
    size_t pixelBytes =
        withPixels ? result.pixels.size() * sizeof(float) : 0;
    body.reserve(kResultFixedBodyBytes + pixelBytes);
    util::appendPod(body, requestId);
    util::appendPod(body, static_cast<uint8_t>(result.error));
    util::appendPod(body, static_cast<uint8_t>(0)); // pad
    util::appendPod(body, static_cast<uint8_t>(0)); // pad
    util::appendPod(body, static_cast<uint8_t>(0)); // pad
    util::appendPod(body, result.retryAfterMs);
    util::appendPod(body, result.servedDay);
    util::appendPod(body, result.serveNs);
    util::appendPod(body, static_cast<uint32_t>(result.tilesDecoded));
    util::appendPod(body, static_cast<uint32_t>(result.tilesFromCache));
    util::appendPod(body, static_cast<uint32_t>(result.tilesCoalesced));
    util::appendPod(
        body,
        static_cast<uint32_t>(withPixels ? result.pixels.width() : 0));
    util::appendPod(
        body,
        static_cast<uint32_t>(withPixels ? result.pixels.height() : 0));
    if (withPixels) {
        size_t at = body.size();
        body.resize(at + pixelBytes);
        std::memcpy(body.data() + at, result.pixels.data().data(),
                    pixelBytes);
    }

    std::vector<uint8_t> out;
    out.reserve(kFrameHeaderBytes + body.size());
    appendHeader(out, kResultMagic, kProtocolVersion, body.data(),
                 body.size());
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

bool
decodeQuery(const Frame &frame, uint64_t &requestId,
            ground::TileQuery &query)
{
    if (frame.magic != kQueryMagic || frame.body.size() != kQueryBodyBytes)
        return false;
    const uint8_t *p = frame.body.data();
    requestId = util::readPodAt<uint64_t>(p, 0);
    query.locationId = util::readPodAt<int32_t>(p, 8);
    query.band = util::readPodAt<int32_t>(p, 12);
    query.day = util::readPodAt<double>(p, 16);
    query.x0 = util::readPodAt<int32_t>(p, 24);
    query.y0 = util::readPodAt<int32_t>(p, 28);
    query.width = util::readPodAt<int32_t>(p, 32);
    query.height = util::readPodAt<int32_t>(p, 36);
    query.quality = util::readPodAt<int32_t>(p, 40);
    return true;
}

bool
decodeResult(const Frame &frame, uint64_t &requestId,
             ground::TileResult &result)
{
    if (frame.magic != kResultMagic ||
        frame.body.size() < kResultFixedBodyBytes)
        return false;
    const uint8_t *p = frame.body.data();
    requestId = util::readPodAt<uint64_t>(p, 0);
    uint8_t status = util::readPodAt<uint8_t>(p, 8);
    if (status > static_cast<uint8_t>(ground::ServeError::Corrupt))
        return false;
    result = ground::TileResult{};
    result.error = static_cast<ground::ServeError>(status);
    result.retryAfterMs = util::readPodAt<uint32_t>(p, 12);
    result.servedDay = util::readPodAt<double>(p, 16);
    result.serveNs = util::readPodAt<uint64_t>(p, 24);
    result.tilesDecoded =
        static_cast<int>(util::readPodAt<uint32_t>(p, 32));
    result.tilesFromCache =
        static_cast<int>(util::readPodAt<uint32_t>(p, 36));
    result.tilesCoalesced =
        static_cast<int>(util::readPodAt<uint32_t>(p, 40));
    uint32_t width = util::readPodAt<uint32_t>(p, 44);
    uint32_t height = util::readPodAt<uint32_t>(p, 48);
    if (width > static_cast<uint32_t>(kMaxResultDim) ||
        height > static_cast<uint32_t>(kMaxResultDim))
        return false;
    size_t pixelBytes = static_cast<size_t>(width) * height *
                        sizeof(float);
    if (frame.body.size() != kResultFixedBodyBytes + pixelBytes)
        return false;
    if (pixelBytes) {
        result.pixels = raster::Plane(static_cast<int>(width),
                                      static_cast<int>(height));
        std::memcpy(result.pixels.data().data(),
                    p + kResultFixedBodyBytes, pixelBytes);
    }
    return true;
}

ground::TileResult
shedResult(uint32_t retryAfterMs)
{
    ground::TileResult result;
    result.error = ground::ServeError::Shed;
    result.retryAfterMs = retryAfterMs;
    return result;
}

} // namespace earthplus::net

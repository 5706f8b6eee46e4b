/**
 * @file
 * EPT wire protocol: versioned, length-prefixed, CRC-protected frames
 * carrying tile queries and results between a remote client and the
 * ground tile server (normative byte layout: docs/ARCHITECTURE.md,
 * "EPTQ / EPTR wire frames").
 *
 * Three frame types share one 16-byte header (all fields
 * little-endian):
 *
 *     magic u32 | version u32 | bodyLen u32 | bodyCrc u32
 *
 * followed by bodyLen body bytes whose CRC-32 (IEEE 802.3, the same
 * polynomial as EPPK packets and EPAR shards) must equal bodyCrc.
 *
 *  - "EPTH" (hello): empty body; each side announces its protocol
 *    version in the header. Sent once per connection, client first.
 *  - "EPTQ" (query): one TileQuery plus a caller-chosen request id.
 *  - "EPTR" (result): the TileResult for one request id — a status
 *    byte transporting ground::ServeError verbatim, serving metadata,
 *    and the pixel payload for ok() results.
 *
 * The incremental FrameReader tolerates arbitrary fragmentation (a
 * frame split at every byte boundary reassembles identically) and
 * fails closed: bad magic, an oversized length prefix, or a CRC
 * mismatch poison the reader — the connection is the recovery unit,
 * there is no resynchronization scan.
 */

#ifndef EARTHPLUS_NET_PROTOCOL_HH
#define EARTHPLUS_NET_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ground/tile_server.hh"

namespace earthplus::net {

/** Frame magic "EPTH" (hello / version handshake), little-endian. */
constexpr uint32_t kHelloMagic = 0x48545045u;
/** Frame magic "EPTQ" (tile query), little-endian. */
constexpr uint32_t kQueryMagic = 0x51545045u;
/** Frame magic "EPTR" (tile result), little-endian. */
constexpr uint32_t kResultMagic = 0x52545045u;

/**
 * Protocol version spoken by this build (bumped on layout change).
 * Version 2 appended a quality hint (i32) to the EPTQ body; version 3
 * dropped the layer-count field before it, moving quality to offset 40.
 * Peers of any other version are refused at the handshake.
 */
constexpr uint32_t kProtocolVersion = 3;

/** Bytes in the fixed frame header (magic, version, len, crc). */
constexpr size_t kFrameHeaderBytes = 16;
/** Body size of an EPTQ frame. */
constexpr size_t kQueryBodyBytes = 44;
/** Fixed (pre-pixel) body size of an EPTR frame. */
constexpr size_t kResultFixedBodyBytes = 52;
/** Largest body any frame may declare; larger prefixes are rejected
 *  before any allocation happens. */
constexpr size_t kMaxBodyBytes = 64u << 20;
/** Largest pixel dimension an EPTR frame may carry. */
constexpr int kMaxResultDim = 16384;

/** Why a FrameReader rejected its byte stream. */
enum class FrameError : uint8_t
{
    None = 0,      ///< Stream healthy so far.
    BadMagic = 1,  ///< Header magic is none of EPTH/EPTQ/EPTR.
    BadLength = 2, ///< Declared body length exceeds kMaxBodyBytes.
    BadCrc = 3,    ///< Body bytes do not match the header CRC.
};

/** One reassembled frame: header fields plus the raw body bytes. */
struct Frame
{
    uint32_t magic = 0;        ///< One of the three frame magics.
    uint32_t version = 0;      ///< Sender's protocol version.
    std::vector<uint8_t> body; ///< CRC-verified body bytes.
};

/**
 * Incremental frame reassembler. feed() it raw bytes as they arrive;
 * next() yields complete CRC-verified frames. Any framing violation
 * latches error() and stops parsing — callers drop the connection.
 */
class FrameReader
{
  public:
    /** Append raw received bytes (ignored once poisoned). */
    void feed(const uint8_t *data, size_t size);

    /**
     * Extract the next complete frame into `out`. False when more
     * bytes are needed or the stream is poisoned (check error()).
     */
    bool next(Frame &out);

    /** First framing violation seen, or FrameError::None. */
    FrameError error() const { return error_; }

    /** Bytes buffered but not yet consumed by next(). */
    size_t buffered() const { return buf_.size() - pos_; }

  private:
    std::vector<uint8_t> buf_;
    size_t pos_ = 0;
    FrameError error_ = FrameError::None;
};

/** Serialize an EPTH hello frame announcing `version`. */
std::vector<uint8_t> encodeHello(uint32_t version);

/** Serialize an EPTQ frame for `query` tagged with `requestId`. */
std::vector<uint8_t> encodeQuery(uint64_t requestId,
                                 const ground::TileQuery &query);

/**
 * Serialize an EPTR frame for `result` tagged with `requestId`.
 * Pixels are included only when result.ok(); error responses are
 * header + fixed body only.
 */
std::vector<uint8_t> encodeResult(uint64_t requestId,
                                  const ground::TileResult &result);

/**
 * Decode an EPTQ frame body. False when the frame is not a query or
 * the body is not kQueryBodyBytes long (the server treats either as a
 * protocol error); the query fields themselves are validated later by
 * TileQuery::validate() (the single validation authority — network
 * input gets no private clamping path).
 */
bool decodeQuery(const Frame &frame, uint64_t &requestId,
                 ground::TileQuery &query);

/**
 * Decode an EPTR frame body, reconstructing the TileResult (status
 * byte back to ServeError, pixel plane re-assembled). False on a
 * non-result frame, size mismatch, unknown status, or pixel
 * dimensions out of range.
 */
bool decodeResult(const Frame &frame, uint64_t &requestId,
                  ground::TileResult &result);

/**
 * The TileResult a serving front answers with when admission control
 * sheds a query: ServeError::Shed plus the retry hint, no pixels.
 */
ground::TileResult shedResult(uint32_t retryAfterMs);

} // namespace earthplus::net

#endif // EARTHPLUS_NET_PROTOCOL_HH

/**
 * @file
 * Tests for the EPT wire protocol and the event-loop serving front:
 * codec round trips, framing torture (fragmentation, bad magic,
 * corrupt CRC, oversized length prefixes), loopback client/server
 * round trips against the in-process serve path, the version
 * handshake, and admission-control shedding under overload.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "codec/codec.hh"
#include "ground/archive.hh"
#include "ground/crc32.hh"
#include "ground/tile_server.hh"
#include "net/client.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "raster/tile.hh"
#include "util/bytes.hh"
#include "util/failpoint.hh"
#include "util/rng.hh"
#include "util/telemetry.hh"

#include "temp_path.hh"

using namespace earthplus;
using namespace earthplus::ground;
using namespace earthplus::net;
using testutil::TempPath;

namespace {

/** Natural-image-like test content. */
raster::Plane
testPlane(int w, int h, uint64_t seed)
{
    raster::Plane p(w, h);
    Rng rng(seed);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            p.at(x, y) = 0.5f +
                         0.3f * std::sin(x * 0.05f) * std::cos(y * 0.07f) +
                         static_cast<float>(rng.normal(0.0, 0.01));
    p.clampTo(0.0f, 1.0f);
    return p;
}

/** Append a full download + one delta for location 1 to `archive`. */
void
buildChain(Archive &archive, const raster::Plane &base, int tileSize)
{
    codec::EncodeParams ep;
    ep.bitsPerPixel = 4.0;
    ep.tileSize = tileSize;
    RecordMeta meta;
    meta.locationId = 1;
    meta.band = 0;
    meta.captureDay = 1.0;
    meta.fullDownload = true;
    archive.append(meta, codec::encode(base, ep).serialize());

    raster::TileGrid grid(base.width(), base.height(), tileSize);
    raster::TileMask roi(grid);
    roi.set(0, true);
    ep.roi = &roi;
    meta.captureDay = 2.0;
    meta.fullDownload = false;
    meta.referenceDay = 1.0;
    archive.append(meta, codec::encode(base, ep).serialize());
}

/** A query the test archive can serve in full. */
TileQuery
fullQuery()
{
    TileQuery q;
    q.locationId = 1;
    q.day = 2.5;
    q.x0 = 0;
    q.y0 = 0;
    q.width = 128;
    q.height = 128;
    return q;
}

/** Feed a byte range into a reader. */
void
feedRange(FrameReader &reader, const std::vector<uint8_t> &bytes,
          size_t begin, size_t end)
{
    reader.feed(bytes.data() + begin, end - begin);
}

} // anonymous namespace

// ---------------------------------------------------------------------------
// Protocol codec round trips.

TEST(NetProtocol, QueryRoundTrip)
{
    TileQuery q;
    q.locationId = 42;
    q.band = 3;
    q.day = 17.25;
    q.x0 = -5;
    q.y0 = 11;
    q.width = 300;
    q.height = 200;
    q.quality = 35;

    std::vector<uint8_t> bytes = encodeQuery(0xDEADBEEFCAFEull, q);
    EXPECT_EQ(bytes.size(), kFrameHeaderBytes + kQueryBodyBytes);
    EXPECT_EQ(kQueryBodyBytes, 44u);

    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_TRUE(reader.next(frame));
    EXPECT_EQ(frame.magic, kQueryMagic);
    EXPECT_EQ(frame.version, kProtocolVersion);

    uint64_t id = 0;
    TileQuery back;
    ASSERT_TRUE(decodeQuery(frame, id, back));
    EXPECT_EQ(id, 0xDEADBEEFCAFEull);
    EXPECT_EQ(back.locationId, q.locationId);
    EXPECT_EQ(back.band, q.band);
    EXPECT_DOUBLE_EQ(back.day, q.day);
    EXPECT_EQ(back.x0, q.x0);
    EXPECT_EQ(back.y0, q.y0);
    EXPECT_EQ(back.width, q.width);
    EXPECT_EQ(back.height, q.height);
    EXPECT_EQ(back.quality, q.quality);
}

TEST(NetProtocol, ResultRoundTripWithPixels)
{
    TileResult r;
    r.error = ServeError::Truncated;
    r.pixels = testPlane(48, 32, 7);
    r.servedDay = 2.0;
    r.serveNs = 123456;
    r.tilesDecoded = 4;
    r.tilesFromCache = 2;
    r.tilesCoalesced = 1;

    std::vector<uint8_t> bytes = encodeResult(99, r);
    EXPECT_EQ(bytes.size(), kFrameHeaderBytes + kResultFixedBodyBytes +
                                48 * 32 * sizeof(float));

    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_TRUE(reader.next(frame));
    EXPECT_EQ(frame.magic, kResultMagic);

    uint64_t id = 0;
    TileResult back;
    ASSERT_TRUE(decodeResult(frame, id, back));
    EXPECT_EQ(id, 99u);
    EXPECT_EQ(back.error, ServeError::Truncated);
    EXPECT_TRUE(back.ok());
    EXPECT_DOUBLE_EQ(back.servedDay, 2.0);
    EXPECT_EQ(back.serveNs, 123456u);
    EXPECT_EQ(back.tilesDecoded, 4);
    EXPECT_EQ(back.tilesFromCache, 2);
    EXPECT_EQ(back.tilesCoalesced, 1);
    ASSERT_EQ(back.pixels.width(), 48);
    ASSERT_EQ(back.pixels.height(), 32);
    EXPECT_EQ(back.pixels.data(), r.pixels.data()); // bit-exact
}

TEST(NetProtocol, ErrorResultsCarryNoPixels)
{
    TileResult shed = shedResult(75);
    EXPECT_EQ(shed.error, ServeError::Shed);
    EXPECT_EQ(shed.retryAfterMs, 75u);

    std::vector<uint8_t> bytes = encodeResult(7, shed);
    EXPECT_EQ(bytes.size(), kFrameHeaderBytes + kResultFixedBodyBytes);

    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_TRUE(reader.next(frame));
    uint64_t id = 0;
    TileResult back;
    ASSERT_TRUE(decodeResult(frame, id, back));
    EXPECT_EQ(back.error, ServeError::Shed);
    EXPECT_EQ(back.retryAfterMs, 75u);
    EXPECT_TRUE(back.pixels.empty());
    EXPECT_FALSE(back.ok());
}

TEST(NetProtocol, HelloCarriesVersionInHeader)
{
    std::vector<uint8_t> bytes = encodeHello(kProtocolVersion + 3);
    EXPECT_EQ(bytes.size(), kFrameHeaderBytes);
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_TRUE(reader.next(frame));
    EXPECT_EQ(frame.magic, kHelloMagic);
    EXPECT_EQ(frame.version, kProtocolVersion + 3);
    EXPECT_TRUE(frame.body.empty());
}

// ---------------------------------------------------------------------------
// Framing torture.

TEST(NetProtocol, FrameSurvivesSplitAtEveryByteBoundary)
{
    TileQuery q = fullQuery();
    std::vector<uint8_t> bytes = encodeQuery(5, q);
    for (size_t split = 1; split < bytes.size(); ++split) {
        FrameReader reader;
        Frame frame;
        feedRange(reader, bytes, 0, split);
        EXPECT_FALSE(reader.next(frame)) << "split=" << split;
        EXPECT_EQ(reader.error(), FrameError::None);
        feedRange(reader, bytes, split, bytes.size());
        ASSERT_TRUE(reader.next(frame)) << "split=" << split;
        EXPECT_EQ(frame.magic, kQueryMagic);
        EXPECT_EQ(reader.buffered(), 0u);
    }
}

TEST(NetProtocol, ByteByByteFeedReassemblesBackToBackFrames)
{
    std::vector<uint8_t> stream = encodeHello(kProtocolVersion);
    std::vector<uint8_t> query = encodeQuery(11, fullQuery());
    TileResult nf;
    nf.error = ServeError::NotFound;
    std::vector<uint8_t> result = encodeResult(11, nf);
    stream.insert(stream.end(), query.begin(), query.end());
    stream.insert(stream.end(), result.begin(), result.end());

    FrameReader reader;
    std::vector<uint32_t> magics;
    Frame frame;
    for (uint8_t b : stream) {
        reader.feed(&b, 1);
        while (reader.next(frame))
            magics.push_back(frame.magic);
    }
    EXPECT_EQ(reader.error(), FrameError::None);
    ASSERT_EQ(magics.size(), 3u);
    EXPECT_EQ(magics[0], kHelloMagic);
    EXPECT_EQ(magics[1], kQueryMagic);
    EXPECT_EQ(magics[2], kResultMagic);
}

TEST(NetProtocol, BadMagicPoisonsTheReader)
{
    std::vector<uint8_t> bytes = encodeQuery(1, fullQuery());
    bytes[0] ^= 0xFF;
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_EQ(reader.error(), FrameError::BadMagic);
    // Poisoned: further bytes are ignored, no resynchronization.
    std::vector<uint8_t> good = encodeHello(kProtocolVersion);
    reader.feed(good.data(), good.size());
    EXPECT_FALSE(reader.next(frame));
    EXPECT_EQ(reader.error(), FrameError::BadMagic);
}

TEST(NetProtocol, CorruptCrcIsRejected)
{
    std::vector<uint8_t> bytes = encodeQuery(1, fullQuery());
    bytes.back() ^= 0x01; // flip one body bit
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_EQ(reader.error(), FrameError::BadCrc);
}

TEST(NetProtocol, OversizedLengthPrefixRejectedFromHeaderAlone)
{
    // A hostile length prefix must be rejected on sight — from the
    // 16 header bytes only, before the reader ever waits for (or
    // allocates) the declared body.
    std::vector<uint8_t> header = encodeHello(kProtocolVersion);
    uint32_t huge = static_cast<uint32_t>(kMaxBodyBytes) + 1;
    std::memcpy(header.data() + 8, &huge, sizeof(huge));
    FrameReader reader;
    reader.feed(header.data(), kFrameHeaderBytes);
    Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_EQ(reader.error(), FrameError::BadLength);
}

TEST(NetProtocol, TruncatedFrameIsNotAnErrorUntilMoreBytesArrive)
{
    std::vector<uint8_t> bytes = encodeQuery(1, fullQuery());
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size() - 1);
    Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_EQ(reader.error(), FrameError::None);
    EXPECT_EQ(reader.buffered(), bytes.size() - 1);
    reader.feed(bytes.data() + bytes.size() - 1, 1);
    EXPECT_TRUE(reader.next(frame));
}

TEST(NetProtocol, DecodersRejectWrongSizesAndStatuses)
{
    Frame frame;
    frame.magic = kQueryMagic;
    frame.version = kProtocolVersion;
    frame.body.assign(kQueryBodyBytes - 1, 0);
    uint64_t id;
    TileQuery q;
    EXPECT_FALSE(decodeQuery(frame, id, q));

    TileResult nf;
    nf.error = ServeError::NotFound;
    std::vector<uint8_t> bytes = encodeResult(3, nf);
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame rframe;
    ASSERT_TRUE(reader.next(rframe));
    rframe.body[8] = 200; // not a ServeError value
    TileResult r;
    EXPECT_FALSE(decodeResult(rframe, id, r));
}

// ---------------------------------------------------------------------------
// Loopback server round trips.

namespace {

/** Archive + server fixture on an ephemeral loopback port. */
class LoopbackServer
{
  public:
    explicit LoopbackServer(ServerOptions options = {})
        : dir_("net_loopback_" + std::to_string(instances_++)),
          archive_(dir_.str()),
          tiles_((buildChain(archive_, testPlane(128, 128, 9), 64),
                  archive_))
    {
        server_ = std::make_unique<Server>(tiles_, options);
        EXPECT_TRUE(server_->start());
    }

    TileServer &tiles() { return tiles_; }
    uint16_t port() const { return server_->port(); }
    void stopServer() { server_->stop(); }

  private:
    /** Numbers each fixture's archive directory. */
    static inline std::atomic<int> instances_{0};
    TempPath dir_;
    Archive archive_;
    TileServer tiles_;
    std::unique_ptr<Server> server_;
};

} // anonymous namespace

TEST(NetServer, LoopbackRoundTripMatchesInProcessServe)
{
    LoopbackServer fx;
    TileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", fx.port()));
    EXPECT_EQ(client.serverVersion(), kProtocolVersion);

    TileQuery q = fullQuery();
    TileResult local = fx.tiles().serve(q);
    ASSERT_TRUE(local.ok());

    TileResult remote;
    ASSERT_TRUE(client.query(q, remote));
    EXPECT_EQ(remote.error, ServeError::None);
    EXPECT_DOUBLE_EQ(remote.servedDay, local.servedDay);
    EXPECT_EQ(remote.pixels.data(), local.pixels.data()); // bit-exact

    // Status parity with the in-process path for every error class.
    TileQuery miss = q;
    miss.locationId = 999;
    ASSERT_TRUE(client.query(miss, remote));
    EXPECT_EQ(remote.error, fx.tiles().serve(miss).error);
    EXPECT_EQ(remote.error, ServeError::NotFound);

    TileQuery bad = q;
    bad.width = 0;
    ASSERT_TRUE(client.query(bad, remote));
    EXPECT_EQ(remote.error, fx.tiles().serve(bad).error);
    EXPECT_EQ(remote.error, ServeError::BadQuery);

    TileQuery over = q;
    over.x0 = -16;
    over.width = 300;
    TileResult localOver = fx.tiles().serve(over);
    ASSERT_TRUE(client.query(over, remote));
    EXPECT_EQ(remote.error, ServeError::Truncated);
    EXPECT_EQ(remote.pixels.data(), localOver.pixels.data());
}

TEST(NetServer, OverflowingQueryRectIsATypedBadQuery)
{
    // x0 and width arrive as raw int32: a far edge past INT_MAX must
    // be refused by validate(), not overflow inside clipTo().
    LoopbackServer fx;
    TileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", fx.port()));
    TileQuery wide = fullQuery();
    wide.x0 = std::numeric_limits<int32_t>::max() - 10;
    wide.width = 100;
    TileResult remote;
    ASSERT_TRUE(client.query(wide, remote));
    EXPECT_EQ(remote.error, ServeError::BadQuery);
    EXPECT_EQ(fx.tiles().serve(wide).error, ServeError::BadQuery);

    TileQuery tall = fullQuery();
    tall.y0 = std::numeric_limits<int32_t>::max() - 10;
    tall.height = 100;
    ASSERT_TRUE(client.query(tall, remote));
    EXPECT_EQ(remote.error, ServeError::BadQuery);
}

TEST(NetServer, PollBackendServesRoundTrips)
{
    ServerOptions options;
    options.usePoll = true;
    LoopbackServer fx(options);
    TileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", fx.port()));
    TileResult remote;
    ASSERT_TRUE(client.query(fullQuery(), remote));
    EXPECT_EQ(remote.error, ServeError::None);
    EXPECT_EQ(remote.pixels.data(), fx.tiles().serve(fullQuery()).pixels.data());
}

TEST(NetServer, VersionMismatchIsRefusedAfterReportingOurs)
{
    LoopbackServer fx;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    std::vector<uint8_t> hello = encodeHello(kProtocolVersion + 9);
    ASSERT_EQ(::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(hello.size()));

    // The server answers with its own version, then closes.
    FrameReader reader;
    Frame frame;
    bool sawHello = false, sawEof = false;
    for (;;) {
        if (reader.next(frame)) {
            EXPECT_EQ(frame.magic, kHelloMagic);
            EXPECT_EQ(frame.version, kProtocolVersion);
            sawHello = true;
            continue;
        }
        uint8_t buf[4096];
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            reader.feed(buf, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        sawEof = true;
        break;
    }
    EXPECT_TRUE(sawHello);
    EXPECT_TRUE(sawEof);
    ::close(fd);

    // The well-versed client still works.
    TileClient client;
    EXPECT_TRUE(client.connect("127.0.0.1", fx.port()));
}

TEST(NetServer, Version2PeersAreRefusedAndCounted)
{
    // A version-2 peer is refused at the hello: the server answers with
    // its own version, then closes. A version-2 query body — 48 bytes,
    // with the retired maxLayers field at offset 40 and quality at 44 —
    // is refused by decodeQuery() even with a valid CRC, so after a
    // good handshake the server drops the connection instead of
    // answering. Both count as net.protocol_errors.
    std::vector<uint8_t> v3 = encodeQuery(7, fullQuery());
    const auto bodyBegin =
        v3.begin() + static_cast<ptrdiff_t>(kFrameHeaderBytes);
    std::vector<uint8_t> body(bodyBegin, bodyBegin + 40);
    util::appendPod(body, static_cast<int32_t>(-1)); // maxLayers
    util::appendPod(body, static_cast<int32_t>(-1)); // quality
    ASSERT_EQ(body.size(), 48u);
    Frame frame;
    frame.magic = kQueryMagic;
    frame.version = 2;
    frame.body = body;
    uint64_t id = 0;
    TileQuery q;
    EXPECT_FALSE(decodeQuery(frame, id, q));

    std::vector<uint8_t> v2Query;
    util::appendPod(v2Query, kQueryMagic);
    util::appendPod(v2Query, static_cast<uint32_t>(2));
    util::appendPod(v2Query, static_cast<uint32_t>(body.size()));
    util::appendPod(v2Query, crc32(body.data(), body.size()));
    v2Query.insert(v2Query.end(), body.begin(), body.end());

    const bool wasEnabled = telemetry::metricsEnabled();
    telemetry::setMetricsEnabled(true);
    const uint64_t errorsBefore =
        telemetry::counter("net.protocol_errors").value();
    LoopbackServer fx;
    auto dial = [&]() {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(fx.port());
        inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        return fd;
    };
    auto send = [](int fd, const std::vector<uint8_t> &bytes) {
        ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
    };
    // Frames the server sends before it closes the connection.
    auto repliesUntilClose = [](int fd) {
        FrameReader reader;
        Frame reply;
        std::vector<uint32_t> versions;
        for (;;) {
            if (reader.next(reply)) {
                EXPECT_EQ(reply.magic, kHelloMagic);
                versions.push_back(reply.version);
                continue;
            }
            uint8_t buf[4096];
            ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n > 0)
                reader.feed(buf, static_cast<size_t>(n));
            else if (n == 0 || errno != EINTR)
                return versions;
        }
    };

    int oldPeer = dial();
    send(oldPeer, encodeHello(2));
    EXPECT_EQ(repliesUntilClose(oldPeer),
              std::vector<uint32_t>{kProtocolVersion});
    ::close(oldPeer);

    int oldBody = dial();
    send(oldBody, encodeHello(kProtocolVersion));
    send(oldBody, v2Query);
    EXPECT_EQ(repliesUntilClose(oldBody),
              std::vector<uint32_t>{kProtocolVersion})
        << "server must close, not answer";
    ::close(oldBody);

    EXPECT_EQ(telemetry::counter("net.protocol_errors").value() -
                  errorsBefore,
              2u);
    telemetry::setMetricsEnabled(wasEnabled);
}

TEST(NetServer, QueriesBeforeHandshakeDropTheConnection)
{
    LoopbackServer fx;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    std::vector<uint8_t> query = encodeQuery(1, fullQuery());
    ASSERT_EQ(::send(fd, query.data(), query.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(query.size()));
    uint8_t buf[64];
    ssize_t n;
    do {
        n = ::recv(fd, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    EXPECT_EQ(n, 0) << "server must close, not answer";
    ::close(fd);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(NetServer, ZeroPendingQueueShedsEverythingWithRetryHint)
{
    ServerOptions options;
    options.maxPending = 0;
    options.retryAfterMs = 120;
    LoopbackServer fx(options);
    TileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", fx.port()));
    for (int i = 0; i < 5; ++i) {
        TileResult r;
        ASSERT_TRUE(client.query(fullQuery(), r));
        EXPECT_EQ(r.error, ServeError::Shed);
        EXPECT_EQ(r.retryAfterMs, 120u);
        EXPECT_TRUE(r.pixels.empty());
    }
}

TEST(NetServer, PipelinedBurstNeverHangsEveryQueryAnswered)
{
    ServerOptions options;
    options.maxPending = 2;
    LoopbackServer fx(options);
    TileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", fx.port()));

    constexpr int kBurst = 64;
    for (int i = 0; i < kBurst; ++i)
        ASSERT_TRUE(client.send(fullQuery(), 1000 + i));

    std::set<uint64_t> answered;
    int served = 0, shed = 0;
    for (int i = 0; i < kBurst; ++i) {
        TileResult r;
        uint64_t id = 0;
        ASSERT_TRUE(client.receive(r, &id));
        ASSERT_TRUE(answered.insert(id).second) << "duplicate id " << id;
        ASSERT_GE(id, 1000u);
        ASSERT_LT(id, 1000u + kBurst);
        if (r.error == ServeError::Shed) {
            EXPECT_GT(r.retryAfterMs, 0u);
            ++shed;
        } else {
            EXPECT_EQ(r.error, ServeError::None);
            ++served;
        }
    }
    EXPECT_EQ(served + shed, kBurst);
    EXPECT_GT(served, 0);
}

TEST(NetServer, StopWithOpenConnectionsIsClean)
{
    auto fx = std::make_unique<LoopbackServer>();
    TileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", fx->port()));
    TileResult r;
    ASSERT_TRUE(client.query(fullQuery(), r));
    fx->stopServer();
    // The connection is gone; the client notices on its next use.
    EXPECT_FALSE(client.query(fullQuery(), r));
    fx.reset();
}

// ---------------------------------------------------------------------------
// Fault injection, deadlines, and retries.

namespace {

/**
 * Enables metrics (the retry/timeout counters under test are gated on
 * it) and guarantees no failpoint leaks out of the test.
 */
struct FaultGuard
{
    FaultGuard() : wasEnabled_(telemetry::metricsEnabled())
    {
        telemetry::setMetricsEnabled(true);
        failpoint::disarmAll();
    }

    ~FaultGuard()
    {
        failpoint::disarmAll();
        telemetry::setMetricsEnabled(wasEnabled_);
    }

    bool wasEnabled_;
};

uint64_t
counterValue(const char *name)
{
    return telemetry::counter(name).value();
}

failpoint::Schedule
alwaysWithArg(int64_t arg)
{
    failpoint::Schedule s;
    s.trigger = failpoint::Trigger::Always;
    s.arg = arg;
    return s;
}

failpoint::Schedule
nthHit(uint64_t n)
{
    failpoint::Schedule s;
    s.trigger = failpoint::Trigger::NthHit;
    s.n = n;
    return s;
}

/** Raw blocking socket connected to 127.0.0.1:port, or -1. */
int
rawConnect(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Drain a raw socket until EOF; returns total bytes read. */
size_t
recvUntilEof(int fd)
{
    size_t total = 0;
    uint8_t buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            total += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return total;
    }
}

} // anonymous namespace

TEST(NetFault, ShedRetriesConsumeTheBudgetThenReportShed)
{
    FaultGuard guard;
    ServerOptions so;
    so.maxPending = 0; // every query is shed
    so.retryAfterMs = 1;
    LoopbackServer fx(so);
    ClientOptions co;
    co.maxRetries = 3;
    TileClient client(co);
    ASSERT_TRUE(client.connect("127.0.0.1", fx.port()));

    uint64_t retriesBefore = counterValue("net.client.retries");
    TileResult r;
    // The transport keeps working, so query() reports true; once the
    // budget is spent the Shed status is handed back to the caller
    // with the server's retry hint intact.
    EXPECT_TRUE(client.query(fullQuery(), r));
    EXPECT_EQ(r.error, ServeError::Shed);
    EXPECT_EQ(r.retryAfterMs, 1u);
    EXPECT_EQ(counterValue("net.client.retries") - retriesBefore, 3u);
    EXPECT_TRUE(client.connected())
        << "shed retries must reuse the connection, not redial";
}

TEST(NetFault, DroppedResponseTimesOutReconnectsAndRetries)
{
    FaultGuard guard;
    LoopbackServer fx;
    ClientOptions co;
    co.readTimeoutMs = 150;
    co.maxRetries = 2;
    co.backoffBaseMs = 1;
    TileClient client(co);
    ASSERT_TRUE(client.connect("127.0.0.1", fx.port()));

    // The server computes the first response, then drops it on the
    // floor: the only way the client recovers is its read deadline.
    failpoint::arm("net.server.drop_response", nthHit(1));
    uint64_t timeoutsBefore = counterValue("net.client.timeouts");
    uint64_t reconnectsBefore = counterValue("net.client.reconnects");
    TileResult r;
    ASSERT_TRUE(client.query(fullQuery(), r));
    EXPECT_EQ(r.error, ServeError::None);
    EXPECT_EQ(r.pixels.data(), fx.tiles().serve(fullQuery()).pixels.data());
    EXPECT_GE(counterValue("net.client.timeouts") - timeoutsBefore, 1u);
    EXPECT_GE(counterValue("net.client.reconnects") - reconnectsBefore,
              1u);
}

TEST(NetFault, PartialReadsAndWritesStillDeliverIntactPayloads)
{
    FaultGuard guard;
    LoopbackServer fx;
    // Every socket op on both sides is chopped into single-digit-byte
    // fragments; the framing layer must reassemble bit-exact pixels.
    failpoint::arm("net.server.recv.partial", alwaysWithArg(7));
    failpoint::arm("net.server.send.partial", alwaysWithArg(9));
    failpoint::arm("net.client.send.short", alwaysWithArg(5));
    TileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", fx.port()));
    TileResult r;
    ASSERT_TRUE(client.query(fullQuery(), r));
    EXPECT_EQ(r.error, ServeError::None);
    EXPECT_EQ(r.pixels.data(), fx.tiles().serve(fullQuery()).pixels.data());
    EXPECT_GT(failpoint::site("net.server.recv.partial").fireCount(), 0u);
    EXPECT_GT(failpoint::site("net.server.send.partial").fireCount(), 0u);
    EXPECT_GT(failpoint::site("net.client.send.short").fireCount(), 0u);
}

TEST(NetFault, MidFrameResetReconnectsAndRetries)
{
    FaultGuard guard;
    LoopbackServer fx;
    ClientOptions co;
    co.maxRetries = 1;
    co.backoffBaseMs = 1;
    TileClient client(co);
    ASSERT_TRUE(client.connect("127.0.0.1", fx.port()));
    // Armed after the handshake so the reset lands mid-query; the
    // reconnect handshake (hit 2) is clean.
    failpoint::arm("net.client.recv.reset", nthHit(1));
    TileResult r;
    ASSERT_TRUE(client.query(fullQuery(), r));
    EXPECT_EQ(r.error, ServeError::None);
}

TEST(NetFault, InjectedConnectFailureIsSurfacedAndRecovers)
{
    FaultGuard guard;
    LoopbackServer fx;
    failpoint::arm("net.client.connect.fail", alwaysWithArg(0));
    TileClient client;
    EXPECT_FALSE(client.connect("127.0.0.1", fx.port()));
    EXPECT_FALSE(client.connected());
    failpoint::disarmAll();
    EXPECT_TRUE(client.connect("127.0.0.1", fx.port()));
    TileResult r;
    EXPECT_TRUE(client.query(fullQuery(), r));
}

TEST(NetServer, SlowLorisPartialFrameIsClosedAtTheReadDeadline)
{
    FaultGuard guard;
    ServerOptions so;
    so.readTimeoutMs = 100;
    so.idleTimeoutMs = 0;
    LoopbackServer fx(so);
    int fd = rawConnect(fx.port());
    ASSERT_GE(fd, 0);

    // Full handshake followed by half a query frame, then silence —
    // the classic slow-loris shape. Trickling more bytes would not
    // help the attacker: the deadline anchors at the frame's first
    // byte and is not refreshed by partial progress.
    std::vector<uint8_t> bytes = encodeHello(kProtocolVersion);
    std::vector<uint8_t> query = encodeQuery(1, fullQuery());
    bytes.insert(bytes.end(), query.begin(),
                 query.begin() + query.size() / 2);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));

    uint64_t before = counterValue("net.server.timeouts");
    auto t0 = std::chrono::steady_clock::now();
    recvUntilEof(fd); // hello response, then the deadline close
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    ::close(fd);
    EXPECT_LT(elapsed, 5000) << "server must not wait for the attacker";
    EXPECT_GE(counterValue("net.server.timeouts") - before, 1u);

    // The server is still serving everyone else.
    TileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", fx.port()));
    TileResult r;
    EXPECT_TRUE(client.query(fullQuery(), r));
}

TEST(NetServer, IdleConnectionIsReapedAfterIdleTimeout)
{
    FaultGuard guard;
    ServerOptions so;
    so.idleTimeoutMs = 80;
    LoopbackServer fx(so);
    int fd = rawConnect(fx.port());
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> hello = encodeHello(kProtocolVersion);
    ASSERT_EQ(::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(hello.size()));
    uint64_t before = counterValue("net.server.timeouts");
    // After the handshake the connection is quiescent; the server
    // reaps it at the idle deadline and we observe the EOF.
    EXPECT_GT(recvUntilEof(fd), 0u) << "handshake response expected";
    ::close(fd);
    EXPECT_GE(counterValue("net.server.timeouts") - before, 1u);
}

TEST(NetServer, StopHonorsTheDrainBound)
{
    FaultGuard guard;
    ServerOptions so;
    so.drainTimeoutMs = 300;
    auto fx = std::make_unique<LoopbackServer>(so);
    TileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", fx->port()));
    // Pipeline a burst and stop immediately: whatever the event loop
    // already admitted is served and flushed during the drain; the
    // stop itself must return within the bound regardless.
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(client.send(fullQuery(), 50 + i));
    auto t0 = std::chrono::steady_clock::now();
    fx->stopServer();
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    EXPECT_LE(elapsed, 2000) << "stop() must respect drainTimeoutMs";
    // Drained responses remain readable until the EOF; none of this
    // may hang.
    TileResult r;
    uint64_t id = 0;
    int received = 0;
    while (client.receive(r, &id))
        ++received;
    EXPECT_LE(received, 8);
    fx.reset();
}

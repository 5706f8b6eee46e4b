#include "net/client.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/failpoint.hh"
#include "util/telemetry.hh"

namespace earthplus::net {

namespace {

/** connect(2) + handshake deadline, milliseconds. */
constexpr int kConnectTimeoutMs = 5000;
/** Deadline for flushing one frame to the socket, milliseconds. */
constexpr int kWriteTimeoutMs = 5000;
/** Backoff ceiling, ms (the "capped" in capped exponential). */
constexpr uint64_t kBackoffCapMs = 2000;

/** Client-side telemetry handles, resolved once per process. */
struct ClientMetrics
{
    telemetry::Counter &retries =
        telemetry::counter("net.client.retries");
    telemetry::Counter &reconnects =
        telemetry::counter("net.client.reconnects");
    telemetry::Counter &timeouts =
        telemetry::counter("net.client.timeouts");
};

ClientMetrics &
metrics()
{
    static ClientMetrics m;
    return m;
}

/**
 * Client-side injection sites. connect.fail rejects the dial before
 * any syscall; recv.reset / send.reset drop the connection mid-frame;
 * send.short caps one send(2) to `arg` bytes (default 1) to exercise
 * partial-write reassembly on the server.
 */
struct ClientSites
{
    failpoint::Failpoint &connectFail =
        failpoint::site("net.client.connect.fail");
    failpoint::Failpoint &recvReset =
        failpoint::site("net.client.recv.reset");
    failpoint::Failpoint &sendShort =
        failpoint::site("net.client.send.short");
    failpoint::Failpoint &sendReset =
        failpoint::site("net.client.send.reset");
};

ClientSites &
sites()
{
    static ClientSites s;
    return s;
}

/** Monotonic milliseconds (steady clock — deadlines survive NTP). */
uint64_t
nowMs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Absolute deadline for a relative timeout; 0 means "no bound". */
uint64_t
deadlineFrom(int timeoutMs)
{
    return timeoutMs > 0 ? nowMs() + static_cast<uint64_t>(timeoutMs)
                         : 0;
}

/**
 * Poll until `fd` is ready for `events` or the deadline expires.
 * Returns true on readiness (including error/hangup readiness, so the
 * following syscall surfaces the real errno), false on expiry.
 */
bool
waitReady(int fd, short events, uint64_t deadlineMs)
{
    for (;;) {
        int timeout = -1;
        if (deadlineMs != 0) {
            uint64_t now = nowMs();
            if (now >= deadlineMs)
                return false;
            timeout = static_cast<int>(
                std::min<uint64_t>(deadlineMs - now, INT_MAX));
        }
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = events;
        int rc = ::poll(&pfd, 1, timeout);
        if (rc > 0)
            return true;
        if (rc == 0)
            return false;
        if (errno == EINTR)
            continue;
        return false;
    }
}

/** Switch a socket to non-blocking mode (poll owns all waiting). */
bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

} // anonymous namespace

TileClient::TileClient(const ClientOptions &options)
    : options_(options)
{
}

TileClient::~TileClient()
{
    close();
}

void
TileClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    reader_ = FrameReader{};
}

bool
TileClient::sendAll(const uint8_t *data, size_t size,
                    uint64_t deadlineMs)
{
    size_t sent = 0;
    while (sent < size) {
        if (sites().sendReset.fire()) {
            close();
            return false;
        }
        size_t chunk = size - sent;
        if (sites().sendShort.fire()) {
            auto cap = static_cast<size_t>(
                std::max<int64_t>(1, sites().sendShort.arg()));
            chunk = std::min(chunk, cap);
        }
        ssize_t n = ::send(fd_, data + sent, chunk, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!waitReady(fd_, POLLOUT, deadlineMs)) {
                metrics().timeouts.add();
                close();
                return false;
            }
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        close();
        return false;
    }
    return true;
}

bool
TileClient::readFrame(Frame &out, uint64_t deadlineMs)
{
    for (;;) {
        if (reader_.next(out))
            return true;
        if (reader_.error() != FrameError::None)
            return false;
        if (sites().recvReset.fire()) {
            close();
            return false;
        }
        uint8_t buf[64 * 1024];
        ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n > 0) {
            reader_.feed(buf, static_cast<size_t>(n));
            continue;
        }
        if (n == 0)
            return false; // EOF
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (!waitReady(fd_, POLLIN, deadlineMs)) {
                metrics().timeouts.add();
                return false;
            }
            continue;
        }
        if (errno == EINTR)
            continue;
        return false;
    }
}

bool
TileClient::dial()
{
    close();
    serverVersion_ = 0;
    if (sites().connectFail.fire())
        return false;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1 ||
        !setNonBlocking(fd)) {
        ::close(fd);
        return false;
    }
    uint64_t deadline = deadlineFrom(kConnectTimeoutMs);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (errno != EINPROGRESS) {
            ::close(fd);
            return false;
        }
        if (!waitReady(fd, POLLOUT, deadline)) {
            metrics().timeouts.add();
            ::close(fd);
            return false;
        }
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
            err != 0) {
            ::close(fd);
            return false;
        }
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fd_ = fd;

    // Version handshake, bounded by the remaining connect deadline:
    // announce ours, require the server's EPTH back with a matching
    // version.
    std::vector<uint8_t> hello = encodeHello(kProtocolVersion);
    if (!sendAll(hello.data(), hello.size(), deadline))
        return false;
    Frame frame;
    if (!readFrame(frame, deadline) || frame.magic != kHelloMagic ||
        !frame.body.empty()) {
        close();
        return false;
    }
    serverVersion_ = frame.version;
    if (frame.version != kProtocolVersion) {
        close();
        return false;
    }
    return true;
}

bool
TileClient::connect(const std::string &host, uint16_t port)
{
    host_ = host;
    port_ = port;
    everConnected_ = true;
    return dial();
}

bool
TileClient::reconnect()
{
    if (!everConnected_)
        return false;
    metrics().reconnects.add();
    return dial();
}

bool
TileClient::send(const ground::TileQuery &query, uint64_t requestId)
{
    if (fd_ < 0)
        return false;
    std::vector<uint8_t> frame = encodeQuery(requestId, query);
    return sendAll(frame.data(), frame.size(),
                   deadlineFrom(kWriteTimeoutMs));
}

bool
TileClient::receive(ground::TileResult &result, uint64_t *requestId)
{
    if (fd_ < 0)
        return false;
    Frame frame;
    if (!readFrame(frame, deadlineFrom(options_.readTimeoutMs))) {
        close();
        return false;
    }
    uint64_t id = 0;
    if (!decodeResult(frame, id, result)) {
        close();
        return false;
    }
    if (requestId)
        *requestId = id;
    return true;
}

bool
TileClient::queryOnce(const ground::TileQuery &query,
                      ground::TileResult &result)
{
    uint64_t id = nextRequestId_++;
    if (!send(query, id))
        return false;
    uint64_t got = 0;
    if (!receive(result, &got))
        return false;
    if (got != id) {
        close(); // lockstep round trip: ids must match
        return false;
    }
    return true;
}

bool
TileClient::query(const ground::TileQuery &query,
                  ground::TileResult &result)
{
    for (int attempt = 0;; ++attempt) {
        bool ok = connected() && queryOnce(query, result);
        bool shed = ok && result.error == ground::ServeError::Shed;
        if (ok && !shed)
            return true;
        if (attempt >= options_.maxRetries)
            return ok; // budget spent: a Shed round trip is still true
        metrics().retries.add();
        // Capped exponential backoff. A Shed response's retryAfterMs
        // hint overrides the base step; jitter (from the pinned seed)
        // keeps retries in [delay/2, delay] so synchronized clients
        // de-correlate without losing reproducibility.
        uint64_t base = options_.backoffBaseMs;
        if (shed && result.retryAfterMs > 0)
            base = result.retryAfterMs;
        int shift = std::min(attempt, 20);
        uint64_t delay = std::min<uint64_t>(kBackoffCapMs, base << shift);
        if (delay > 0) {
            auto lo = static_cast<int64_t>(delay / 2);
            auto hi = static_cast<int64_t>(delay);
            uint64_t jittered =
                static_cast<uint64_t>(jitter_.uniformInt(lo, hi));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(jittered));
        }
        // A failed redial falls through: the next iteration's
        // queryOnce guard sees the closed fd and either retries
        // (budget permitting) or reports the failure.
        if (!connected())
            reconnect();
    }
}

} // namespace earthplus::net

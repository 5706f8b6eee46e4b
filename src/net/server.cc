#include "net/server.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <unordered_map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "net/protocol.hh"
#include "util/failpoint.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/telemetry.hh"

namespace earthplus::net {

namespace {

/** listen(2) backlog. */
constexpr int kListenBacklog = 128;
/** Unsent response bytes a connection may buffer before it is closed. */
constexpr size_t kMaxWriteBufferBytes = size_t{64} << 20;

/**
 * Serving-front metrics, resolved once per process (the net.*
 * inventory in docs/OBSERVABILITY.md).
 */
struct NetMetrics
{
    telemetry::Counter &accepted =
        telemetry::counter("net.connections.accepted");
    telemetry::Counter &rejected =
        telemetry::counter("net.connections.rejected");
    telemetry::Gauge &active =
        telemetry::gauge("net.connections.active");
    telemetry::Counter &framesRx = telemetry::counter("net.frames.rx");
    telemetry::Counter &framesTx = telemetry::counter("net.frames.tx");
    telemetry::Counter &bytesRx = telemetry::counter("net.bytes.rx");
    telemetry::Counter &bytesTx = telemetry::counter("net.bytes.tx");
    telemetry::Counter &queries = telemetry::counter("net.queries");
    telemetry::Counter &shed = telemetry::counter("net.shed");
    telemetry::Counter &protocolErrors =
        telemetry::counter("net.protocol_errors");
    telemetry::Histogram &queueWaitNs =
        telemetry::histogram("net.queue.wait_ns");
    telemetry::Histogram &queueDepth =
        telemetry::histogram("net.queue.depth");
    telemetry::Counter &timeouts =
        telemetry::counter("net.server.timeouts");
};

NetMetrics &
netMetrics()
{
    static NetMetrics m;
    return m;
}

/**
 * Server-side injection sites. recv.partial caps one recv(2) to `arg`
 * bytes (default 1) to force frame reassembly across reads;
 * send.partial caps one send(2) the same way to force partial-write
 * handling; drop_response discards a completed serve's EPTR frame
 * instead of sending it, so clients exercise their read deadline and
 * retry paths.
 */
struct ServerSites
{
    failpoint::Failpoint &recvPartial =
        failpoint::site("net.server.recv.partial");
    failpoint::Failpoint &sendPartial =
        failpoint::site("net.server.send.partial");
    failpoint::Failpoint &dropResponse =
        failpoint::site("net.server.drop_response");
};

ServerSites &
serverSites()
{
    static ServerSites s;
    return s;
}

bool
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Readiness bits Poller::wait reports per fd. */
constexpr unsigned kReadable = 1u;
constexpr unsigned kWritable = 2u;
constexpr unsigned kBroken = 4u;

/**
 * Minimal readiness poller: epoll on Linux, poll(2) everywhere (and
 * on Linux too when the caller asks — the fallback stays tested on
 * the platform that never needs it). Interest is level-triggered in
 * both backends, so the two are drop-in equivalent.
 */
class Poller
{
  public:
    explicit Poller(bool usePoll)
    {
#ifdef __linux__
        if (!usePoll)
            epfd_ = epoll_create1(0);
#else
        (void)usePoll;
#endif
    }

    ~Poller()
    {
#ifdef __linux__
        if (epfd_ >= 0)
            ::close(epfd_);
#endif
    }

    void
    add(int fd, bool wantWrite)
    {
        ctl(fd, true, wantWrite, true);
    }

    void
    mod(int fd, bool wantWrite)
    {
        ctl(fd, true, wantWrite, false);
    }

    /**
     * Full interest-mask update. Dropping read interest is how the
     * drain phase ignores new peer bytes without busy-spinning on
     * level-triggered readiness; error/hangup readiness is always
     * reported regardless of the mask, in both backends.
     */
    void
    modMask(int fd, bool wantRead, bool wantWrite)
    {
        ctl(fd, wantRead, wantWrite, false);
    }

    void
    del(int fd)
    {
        interest_.erase(fd);
#ifdef __linux__
        if (epfd_ >= 0)
            epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
    }

    /**
     * Wait until something is ready or `timeoutMs` elapses (-1 waits
     * forever); fills (fd, readiness) pairs. A timeout simply returns
     * an empty set — the caller's deadline sweep does the rest.
     */
    void
    wait(std::vector<std::pair<int, unsigned>> &out, int timeoutMs)
    {
        out.clear();
#ifdef __linux__
        if (epfd_ >= 0) {
            epoll_event evs[64];
            int n = epoll_wait(epfd_, evs, 64, timeoutMs);
            for (int i = 0; i < n; ++i) {
                unsigned bits = 0;
                if (evs[i].events & (EPOLLIN | EPOLLPRI))
                    bits |= kReadable;
                if (evs[i].events & EPOLLOUT)
                    bits |= kWritable;
                if (evs[i].events & (EPOLLERR | EPOLLHUP))
                    bits |= kBroken;
                int fd = evs[i].data.fd;
                out.emplace_back(fd, bits);
            }
            return;
        }
#endif
        std::vector<pollfd> fds;
        fds.reserve(interest_.size());
        for (const auto &[fd, mask] : interest_) {
            pollfd p{};
            p.fd = fd;
            p.events = static_cast<short>(
                ((mask & kReadable) ? POLLIN : 0) |
                ((mask & kWritable) ? POLLOUT : 0));
            fds.push_back(p);
        }
        int n = ::poll(fds.data(),
                       static_cast<nfds_t>(fds.size()), timeoutMs);
        if (n <= 0)
            return;
        for (const pollfd &p : fds) {
            if (p.revents == 0)
                continue;
            unsigned bits = 0;
            if (p.revents & (POLLIN | POLLPRI))
                bits |= kReadable;
            if (p.revents & POLLOUT)
                bits |= kWritable;
            if (p.revents & (POLLERR | POLLHUP | POLLNVAL))
                bits |= kBroken;
            out.emplace_back(p.fd, bits);
        }
    }

  private:
    void
    ctl(int fd, bool wantRead, bool wantWrite, bool isAdd)
    {
        interest_[fd] = (wantRead ? kReadable : 0u) |
                        (wantWrite ? kWritable : 0u);
#ifdef __linux__
        if (epfd_ >= 0) {
            epoll_event ev{};
            ev.events = (wantRead ? EPOLLIN : 0u) |
                        (wantWrite ? EPOLLOUT : 0u);
            ev.data.fd = fd;
            epoll_ctl(epfd_, isAdd ? EPOLL_CTL_ADD : EPOLL_CTL_MOD,
                      fd, &ev);
        }
#else
        (void)isAdd;
#endif
    }

#ifdef __linux__
    int epfd_ = -1;
#endif
    std::unordered_map<int, unsigned> interest_; // fd -> kReadable|kWritable
};

} // anonymous namespace

/** Everything the loop thread owns; no lock guards any of it. */
struct Server::LoopState
{
    struct Connection
    {
        int fd = -1;
        uint64_t id = 0;
        FrameReader reader;
        std::vector<uint8_t> outbox;
        size_t outboxOff = 0;
        bool handshaken = false;
        bool wantWrite = false;
        bool closeAfterFlush = false;
        /** Last socket progress in either direction (idle deadline). */
        uint64_t idleSinceNs = 0;
        /** First byte of the current partial frame, 0 when none (read
         *  deadline; deliberately not refreshed by trickled bytes). */
        uint64_t frameStartNs = 0;
        /** When the outbox last became non-empty, 0 when flushed
         *  (write-stall deadline). */
        uint64_t outboxSinceNs = 0;
        /** Queries admitted on this connection still awaiting their
         *  response frame (an in-flight serve is not "idle"). */
        size_t opsInFlight = 0;
    };

    /** One admitted query waiting for a tile-server slot. */
    struct Pending
    {
        uint64_t connId = 0;
        uint64_t requestId = 0;
        ground::TileQuery query;
        uint64_t admitNs = 0;
    };

    Poller poller;
    std::unordered_map<uint64_t, Connection> conns; // by conn id
    std::unordered_map<int, uint64_t> fdToId;
    std::deque<Pending> pending;
    size_t inflight = 0;
    uint64_t nextConnId = 1;

    explicit LoopState(bool usePoll) : poller(usePoll) {}
};

Server::Server(ground::TileServer &tiles, ServerOptions options)
    : tiles_(tiles), options_(std::move(options))
{
}

Server::~Server()
{
    stop();
}

bool
Server::start()
{
    if (running_.load(std::memory_order_acquire))
        return false;
    stop_.store(false, std::memory_order_release);

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return false;
    int one = 1;
    setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (inet_pton(AF_INET, options_.bindAddress.c_str(),
                  &addr.sin_addr) != 1 ||
        ::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, kListenBacklog) != 0 ||
        !setNonBlocking(listenFd_)) {
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                    &blen) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    port_ = ntohs(bound.sin_port);

    int pipeFds[2];
    if (::pipe(pipeFds) != 0 || !setNonBlocking(pipeFds[0]) ||
        !setNonBlocking(pipeFds[1])) {
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    wakeRead_ = pipeFds[0];
    wakeWrite_ = pipeFds[1];

    maxInflight_ =
        static_cast<size_t>(util::ThreadPool::global().threadCount());

    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] { loop(); });
    return true;
}

void
Server::stop()
{
    if (!running_.load(std::memory_order_acquire))
        return;
    stop_.store(true, std::memory_order_release);
    wake();
    if (thread_.joinable())
        thread_.join();
    {
        // Serves dispatched before shutdown may still be finishing on
        // pool threads; their completions touch this object, so wait
        // them out before tearing anything down.
        std::unique_lock<std::mutex> lock(completedMutex_);
        completedCv_.wait(lock, [this] { return outstanding_ == 0; });
        completed_.clear();
    }
    ::close(listenFd_);
    ::close(wakeRead_);
    ::close(wakeWrite_);
    listenFd_ = wakeRead_ = wakeWrite_ = -1;
    running_.store(false, std::memory_order_release);
}

void
Server::wake()
{
    uint8_t b = 1;
    // Best-effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] ssize_t n = ::write(wakeWrite_, &b, 1);
}

void
Server::loop()
{
    NetMetrics &m = netMetrics();
    LoopState st(options_.usePoll);
    st.poller.add(listenFd_, false);
    st.poller.add(wakeRead_, false);
    // Set during the post-stop grace period: connection sockets keep
    // only write/error interest so nothing new is read or admitted.
    bool draining = false;

    auto closeConn = [&](uint64_t id) {
        auto it = st.conns.find(id);
        if (it == st.conns.end())
            return;
        st.poller.del(it->second.fd);
        ::close(it->second.fd);
        st.fdToId.erase(it->second.fd);
        st.conns.erase(it);
        m.active.add(-1);
    };

    // Try to push a connection's buffered bytes out; arms/clears
    // write interest around partial writes. False when the
    // connection was torn down.
    auto flushConn = [&](LoopState::Connection &conn) -> bool {
        while (conn.outboxOff < conn.outbox.size()) {
            size_t chunk = conn.outbox.size() - conn.outboxOff;
            if (serverSites().sendPartial.fire()) {
                auto cap = static_cast<size_t>(std::max<int64_t>(
                    1, serverSites().sendPartial.arg()));
                chunk = std::min(chunk, cap);
            }
            ssize_t n = ::send(conn.fd, conn.outbox.data() + conn.outboxOff,
                               chunk, MSG_NOSIGNAL);
            if (n > 0) {
                conn.outboxOff += static_cast<size_t>(n);
                conn.idleSinceNs = telemetry::nowNanos();
                m.bytesTx.add(static_cast<uint64_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            closeConn(conn.id);
            return false;
        }
        if (conn.outboxOff == conn.outbox.size()) {
            conn.outbox.clear();
            conn.outboxOff = 0;
            conn.outboxSinceNs = 0;
            if (conn.wantWrite) {
                conn.wantWrite = false;
                st.poller.modMask(conn.fd, !draining, false);
            }
            if (conn.closeAfterFlush) {
                closeConn(conn.id);
                return false;
            }
        } else {
            if (conn.outboxOff > (1u << 20)) {
                conn.outbox.erase(
                    conn.outbox.begin(),
                    conn.outbox.begin() +
                        static_cast<ptrdiff_t>(conn.outboxOff));
                conn.outboxOff = 0;
            }
            if (!conn.wantWrite) {
                conn.wantWrite = true;
                st.poller.modMask(conn.fd, !draining, true);
            }
        }
        return true;
    };

    // Queue one frame on a connection, honouring the write-buffer
    // cap. False when the connection was torn down.
    auto sendFrame = [&](LoopState::Connection &conn,
                         std::vector<uint8_t> frame) -> bool {
        if (conn.outbox.size() - conn.outboxOff + frame.size() >
            kMaxWriteBufferBytes) {
            // The peer has stopped reading; shedding the connection
            // bounds server memory.
            closeConn(conn.id);
            return false;
        }
        if (conn.outboxOff == conn.outbox.size())
            conn.outboxSinceNs = telemetry::nowNanos();
        conn.outbox.insert(conn.outbox.end(), frame.begin(), frame.end());
        m.framesTx.add();
        return flushConn(conn);
    };

    // Handle one reassembled frame. False when the connection was
    // torn down (or scheduled to close) and parsing must stop.
    auto handleFrame = [&](LoopState::Connection &conn,
                           const Frame &frame) -> bool {
        telemetry::TraceSpan span("net.frame", "net");
        m.framesRx.add();
        if (frame.magic == kHelloMagic) {
            if (conn.handshaken || !frame.body.empty()) {
                m.protocolErrors.add();
                closeConn(conn.id);
                return false;
            }
            // Always answer with our version so the peer can report
            // the mismatch; an incompatible peer is then dropped.
            bool compatible = frame.version == kProtocolVersion;
            if (!compatible)
                m.protocolErrors.add();
            conn.handshaken = compatible;
            conn.closeAfterFlush = !compatible;
            return sendFrame(conn, encodeHello(kProtocolVersion)) &&
                   compatible;
        }
        if (!conn.handshaken || frame.magic != kQueryMagic) {
            m.protocolErrors.add();
            closeConn(conn.id);
            return false;
        }
        uint64_t requestId = 0;
        ground::TileQuery query;
        if (!decodeQuery(frame, requestId, query)) {
            m.protocolErrors.add();
            closeConn(conn.id);
            return false;
        }
        m.queries.add();
        if (st.pending.size() >= options_.maxPending) {
            // Admission control: a full queue answers *now* with a
            // retry hint instead of queueing unboundedly.
            m.shed.add();
            return sendFrame(
                conn,
                encodeResult(requestId,
                             shedResult(options_.retryAfterMs)));
        }
        ++conn.opsInFlight;
        st.pending.push_back(LoopState::Pending{
            conn.id, requestId, query, telemetry::nowNanos()});
        m.queueDepth.record(st.pending.size());
        return true;
    };

    auto handleRead = [&](uint64_t id) {
        auto it = st.conns.find(id);
        if (it == st.conns.end())
            return;
        LoopState::Connection &conn = it->second;
        uint8_t buf[64 * 1024];
        for (;;) {
            size_t want = sizeof(buf);
            if (serverSites().recvPartial.fire()) {
                auto cap = static_cast<size_t>(std::max<int64_t>(
                    1, serverSites().recvPartial.arg()));
                want = std::min(want, cap);
            }
            ssize_t n = ::recv(conn.fd, buf, want, 0);
            if (n > 0) {
                m.bytesRx.add(static_cast<uint64_t>(n));
                conn.idleSinceNs = telemetry::nowNanos();
                conn.reader.feed(buf, static_cast<size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            closeConn(id); // EOF or transport error
            return;
        }
        Frame frame;
        while (!conn.closeAfterFlush && conn.reader.next(frame))
            if (!handleFrame(conn, frame))
                return; // conn may be gone; touch nothing
        if (conn.reader.error() != FrameError::None) {
            m.protocolErrors.add();
            closeConn(id);
            return;
        }
        // Track the age of an unfinished frame from its *first* byte:
        // a peer trickling one byte per read deadline never completes
        // a frame but never resets this clock either.
        if (conn.reader.buffered() == 0)
            conn.frameStartNs = 0;
        else if (conn.frameStartNs == 0)
            conn.frameStartNs = telemetry::nowNanos();
    };

    auto acceptAll = [&] {
        for (;;) {
            int fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd < 0) {
                if (errno == EINTR)
                    continue;
                return; // EAGAIN or transient accept failure
            }
            if (st.conns.size() >= options_.maxConnections ||
                !setNonBlocking(fd)) {
                m.rejected.add();
                ::close(fd);
                continue;
            }
            int one = 1;
            setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            uint64_t id = st.nextConnId++;
            LoopState::Connection conn;
            conn.fd = fd;
            conn.id = id;
            conn.idleSinceNs = telemetry::nowNanos();
            st.conns.emplace(id, std::move(conn));
            st.fdToId[fd] = id;
            st.poller.add(fd, false);
            m.accepted.add();
            m.active.add(1);
        }
    };

    // Move queries from the admission queue into the tile server,
    // bounded by maxInflight_. Completions are posted off the pool
    // into completed_; on a single-lane pool the serve (and its
    // completion) runs inline right here, which drainCompleted picks
    // up immediately after.
    auto dispatchPending = [&]() -> size_t {
        size_t dispatched = 0;
        while (st.inflight < maxInflight_ && !st.pending.empty()) {
            LoopState::Pending p = std::move(st.pending.front());
            st.pending.pop_front();
            if (!st.conns.count(p.connId))
                continue; // requester hung up; drop silently
            m.queueWaitNs.record(telemetry::nowNanos() - p.admitNs);
            ++st.inflight;
            ++dispatched;
            uint64_t connId = p.connId;
            uint64_t requestId = p.requestId;
            {
                std::lock_guard<std::mutex> lock(completedMutex_);
                ++outstanding_;
            }
            tiles_.serveAsync(
                p.query,
                [this, connId,
                 requestId](const ground::TileResult &result) {
                    Completed done;
                    done.connId = connId;
                    done.frame = encodeResult(requestId, result);
                    {
                        std::lock_guard<std::mutex> lock(
                            completedMutex_);
                        completed_.push_back(std::move(done));
                    }
                    // Wake strictly before the outstanding_ drop:
                    // once stop() sees zero it closes the pipe, so
                    // the write must already be behind us. The notify
                    // happens *under* the mutex: stop()'s wait can
                    // then only observe zero after this thread has
                    // fully left notify_all, so the cv is never
                    // destroyed mid-broadcast.
                    wake();
                    {
                        std::lock_guard<std::mutex> lock(
                            completedMutex_);
                        --outstanding_;
                        completedCv_.notify_all();
                    }
                });
        }
        return dispatched;
    };

    auto drainCompleted = [&]() -> size_t {
        std::deque<Completed> batch;
        {
            std::lock_guard<std::mutex> lock(completedMutex_);
            batch.swap(completed_);
        }
        for (Completed &done : batch) {
            EP_ASSERT(st.inflight > 0,
                      "completion without a dispatched query");
            --st.inflight;
            auto it = st.conns.find(done.connId);
            if (it == st.conns.end())
                continue; // requester hung up mid-serve
            if (it->second.opsInFlight > 0)
                --it->second.opsInFlight;
            if (serverSites().dropResponse.fire())
                continue; // injected loss: the client's deadline fires
            sendFrame(it->second, std::move(done.frame));
        }
        return batch.size();
    };

    std::vector<std::pair<int, unsigned>> ready;

    // Close connections past their read/idle deadlines and return the
    // poll timeout (ms) until the nearest surviving deadline, or -1
    // when no deadline is armed.
    auto sweepDeadlines = [&]() -> int {
        if (options_.readTimeoutMs == 0 && options_.idleTimeoutMs == 0)
            return -1;
        uint64_t now = telemetry::nowNanos();
        uint64_t readNs =
            static_cast<uint64_t>(options_.readTimeoutMs) * 1000000u;
        uint64_t idleNs =
            static_cast<uint64_t>(options_.idleTimeoutMs) * 1000000u;
        uint64_t nextNs = UINT64_MAX;
        std::vector<uint64_t> expired;
        for (auto &[id, conn] : st.conns) {
            uint64_t deadline = UINT64_MAX;
            bool writing = conn.outboxOff < conn.outbox.size();
            if (options_.readTimeoutMs != 0) {
                if (conn.frameStartNs != 0)
                    deadline = std::min(deadline,
                                        conn.frameStartNs + readNs);
                if (writing && conn.outboxSinceNs != 0)
                    deadline = std::min(deadline,
                                        conn.outboxSinceNs + readNs);
            }
            if (options_.idleTimeoutMs != 0 &&
                conn.frameStartNs == 0 && !writing &&
                conn.opsInFlight == 0)
                deadline =
                    std::min(deadline, conn.idleSinceNs + idleNs);
            if (deadline == UINT64_MAX)
                continue;
            if (deadline <= now)
                expired.push_back(id);
            else
                nextNs = std::min(nextNs, deadline);
        }
        for (uint64_t id : expired) {
            m.timeouts.add();
            closeConn(id);
        }
        if (nextNs == UINT64_MAX)
            return -1;
        return static_cast<int>(std::min<uint64_t>(
            (nextNs - now) / 1000000u + 1, INT_MAX));
    };

    auto handleEvents = [&](bool admitReads) {
        for (const auto &[fd, bits] : ready) {
            if (fd == wakeRead_) {
                uint8_t sink[256];
                while (::read(wakeRead_, sink, sizeof(sink)) > 0) {
                }
                continue;
            }
            if (fd == listenFd_) {
                acceptAll();
                continue;
            }
            auto idIt = st.fdToId.find(fd);
            if (idIt == st.fdToId.end())
                continue; // closed earlier in this batch
            uint64_t id = idIt->second;
            if (bits & kBroken) {
                closeConn(id);
                continue;
            }
            if (bits & kWritable) {
                auto it = st.conns.find(id);
                if (it != st.conns.end() && !flushConn(it->second))
                    continue;
            }
            if ((bits & kReadable) && admitReads)
                handleRead(id);
        }
    };

    while (!stop_.load(std::memory_order_acquire)) {
        st.poller.wait(ready, sweepDeadlines());
        handleEvents(true);
        // Inline-serving pools complete dispatches synchronously, so
        // keep cycling until neither side makes progress.
        for (;;) {
            size_t dispatched = dispatchPending();
            size_t drained = drainCompleted();
            if (dispatched == 0 && drained == 0)
                break;
        }
    }

    // Bounded graceful drain: stop accepting, finish what was already
    // admitted and flush buffered responses, then force-close. New
    // bytes from peers are left unread so nothing new is admitted.
    if (options_.drainTimeoutMs > 0) {
        draining = true;
        st.poller.del(listenFd_);
        for (const auto &[id, conn] : st.conns)
            st.poller.modMask(conn.fd, false, conn.wantWrite);
        uint64_t drainDeadline =
            telemetry::nowNanos() +
            static_cast<uint64_t>(options_.drainTimeoutMs) * 1000000u;
        for (;;) {
            for (;;) {
                size_t dispatched = dispatchPending();
                size_t drained = drainCompleted();
                if (dispatched == 0 && drained == 0)
                    break;
            }
            bool busy = st.inflight > 0 || !st.pending.empty();
            if (!busy)
                for (const auto &[id, conn] : st.conns)
                    if (conn.outboxOff < conn.outbox.size()) {
                        busy = true;
                        break;
                    }
            if (!busy)
                break;
            int64_t leftNs = static_cast<int64_t>(drainDeadline) -
                             static_cast<int64_t>(telemetry::nowNanos());
            if (leftNs <= 0)
                break;
            st.poller.wait(
                ready,
                static_cast<int>(std::min<int64_t>(
                    leftNs / 1000000 + 1, INT_MAX)));
            handleEvents(false);
        }
    }

    for (auto &[id, conn] : st.conns)
        ::close(conn.fd);
    st.conns.clear();
    st.fdToId.clear();
}

} // namespace earthplus::net

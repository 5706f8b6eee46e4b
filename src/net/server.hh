/**
 * @file
 * Non-blocking TCP serving front for the ground tile server.
 *
 * One event-loop thread (epoll on Linux, poll() everywhere via the
 * runtime fallback) owns every connection: it accepts, reassembles
 * EPTQ frames (net/protocol.hh), and writes EPTR responses with
 * partial-write handling. Serving itself never runs on the loop
 * thread when the pool can take it: admitted queries go through
 * ground::TileServer::serveAsync, whose completion encodes the
 * response and hands it back to the loop over a wake pipe — the
 * only cross-thread traffic, so connection state needs no locks.
 *
 * Overload policy is admission control, not unbounded queueing:
 *
 *  - at most `maxConnections` sockets; excess accepts are closed
 *    immediately (counted in net.connections.rejected);
 *  - at most `maxPending` admitted-but-not-dispatched queries; when
 *    the queue is full the query is answered *immediately* with
 *    ServeError::Shed carrying a retry-after hint — shedding is
 *    cheaper than the query, which is what keeps an overloaded
 *    server responsive;
 *  - at most one query per global-pool lane inside the tile server
 *    at once (more would just queue invisibly inside the pool);
 *  - per-connection write buffers are bounded; a consumer that stops
 *    reading past 64 MiB of unsent responses is disconnected rather
 *    than ballooning server memory;
 *  - per-connection deadlines bound how long a half-sent frame (the
 *    slow-loris shape), an unflushable response, or a fully idle peer
 *    may hold a socket: the event loop waits with a timeout instead
 *    of blocking forever and sweeps expired connections each pass.
 *
 * Every stage is instrumented through the telemetry registry (the
 * net.* inventory in docs/OBSERVABILITY.md): connection and shed
 * counters, queue-depth gauge and histogram, time-in-queue
 * histogram, and a per-frame trace span in category "net".
 */

#ifndef EARTHPLUS_NET_SERVER_HH
#define EARTHPLUS_NET_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ground/tile_server.hh"

namespace earthplus::net {

/** Tuning knobs of a Server. */
struct ServerOptions
{
    /** Address to bind (loopback by default; tests and the local
     *  load generator are the expected peers). */
    std::string bindAddress = "127.0.0.1";
    /** TCP port; 0 picks an ephemeral port (read it via port()). */
    uint16_t port = 0;
    /** Connections held at once; excess accepts are closed. */
    size_t maxConnections = 256;
    /** Admitted queries waiting for dispatch before shedding starts. */
    size_t maxPending = 128;
    /** Retry-after hint carried by shed responses, milliseconds. */
    uint32_t retryAfterMs = 50;
    /** Force the portable poll() backend even where epoll exists. */
    bool usePoll = false;
    /**
     * Read deadline, milliseconds (0 disables): a connection whose
     * partial frame stops completing — the slow-loris shape, measured
     * from the first byte of the unfinished frame, so trickling bytes
     * does not reset it — or whose buffered response cannot be
     * flushed for this long is closed (counted in
     * net.server.timeouts).
     */
    uint32_t readTimeoutMs = 10000;
    /**
     * Idle deadline, milliseconds (0 disables): a connection with no
     * partial frame, no buffered response, no query in flight and no
     * traffic for this long is closed (counted in
     * net.server.timeouts).
     */
    uint32_t idleTimeoutMs = 60000;
    /**
     * Graceful-drain bound for stop(), milliseconds. The loop stops
     * accepting, finishes admitted queries and flushes buffered
     * responses for at most this long, then force-closes whatever
     * remains; 0 skips the drain and closes immediately.
     */
    uint32_t drainTimeoutMs = 1000;
};

/**
 * The event-loop serving front. start() spawns the loop thread;
 * stop() (or destruction) shuts it down, closing every connection.
 */
class Server
{
  public:
    /**
     * @param tiles Tile server to serve from (must outlive this
     *        object; shared with in-process callers).
     * @param options Tuning knobs; copied.
     */
    explicit Server(ground::TileServer &tiles,
                    ServerOptions options = {});

    /** Stops the loop and closes all sockets. */
    ~Server();

    Server(const Server &) = delete;            ///< Non-copyable.
    Server &operator=(const Server &) = delete; ///< Non-copyable.

    /**
     * Bind, listen, and spawn the event-loop thread. False (with the
     * sockets cleaned up) when binding fails; safe to call once.
     */
    bool start();

    /**
     * Stop the loop thread and close every socket, after a graceful
     * drain bounded by ServerOptions::drainTimeoutMs (admitted
     * queries finish and buffered responses flush; nothing new is
     * accepted or admitted). Always returns within the drain bound
     * plus the slowest in-flight serve. Idempotent.
     */
    void stop();

    /** Port actually bound (valid after start() returns true). */
    uint16_t port() const { return port_; }

    /** True between a successful start() and stop(). */
    bool
    running() const
    {
        return running_.load(std::memory_order_acquire);
    }

  private:
    /** One finished serve: the encoded EPTR frame for a connection. */
    struct Completed
    {
        uint64_t connId = 0;
        std::vector<uint8_t> frame;
    };

    struct LoopState; // loop-thread-only state (connections, queue)

    void loop();
    void wake();

    ground::TileServer &tiles_;
    ServerOptions options_;
    size_t maxInflight_ = 1;

    int listenFd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    uint16_t port_ = 0;

    std::atomic<bool> stop_{false};
    std::atomic<bool> running_{false};
    std::thread thread_;

    /** Completions from pool threads to the loop (the only shared
     *  mutable state; everything else is loop-thread-only). */
    std::mutex completedMutex_;
    std::condition_variable completedCv_;
    std::deque<Completed> completed_;
    /** Dispatched serves whose completion has not yet fired; stop()
     *  waits for zero so no completion can outlive the server.
     *  Guarded by completedMutex_. */
    size_t outstanding_ = 0;
};

} // namespace earthplus::net

#endif // EARTHPLUS_NET_SERVER_HH

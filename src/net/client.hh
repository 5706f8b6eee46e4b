/**
 * @file
 * Blocking EPT protocol client with deadlines, reconnect and
 * Shed-aware retry.
 *
 * The counterpart of net::Server for tests and the load generator: a
 * poll-guarded socket that handshakes on connect(), then either
 * round-trips one query at a time (query()) or pipelines — send()
 * tags each query with a caller-chosen request id and receive()
 * returns responses in server completion order, so one sender thread
 * and one receiver thread can share a client (they touch opposite
 * directions of the socket; any other concurrent use is on the
 * caller).
 *
 * Failure semantics (new in the robustness pass; docs/RELIABILITY.md
 * holds the full story):
 *
 *  - Every socket operation is bounded by a poll(2)-based deadline
 *    (5 s for connect and for each write, ClientOptions::readTimeoutMs
 *    for reads); an expired deadline counts in net.client.timeouts
 *    and fails the call.
 *  - query() owns a retry budget: a Shed response waits the server's
 *    `retryAfterMs` hint (falling back to backoffBaseMs), a transport
 *    failure reconnects — both under exponential backoff capped at
 *    2 s, with jitter drawn from a seeded Rng, so chaos runs replay
 *    exactly.
 *    The budget defaults to zero, which preserves the original
 *    one-shot semantics (the gated load generator depends on them).
 *  - send()/receive() never retry: pipelining callers own their
 *    request-id space, so a silent reconnect would strand their
 *    in-flight ids.
 *
 * Transport or protocol failures still latch the client closed;
 * query() with a budget reopens it via reconnect(), and callers can
 * reconnect() explicitly.
 */

#ifndef EARTHPLUS_NET_CLIENT_HH
#define EARTHPLUS_NET_CLIENT_HH

#include <cstdint>
#include <string>

#include "ground/tile_server.hh"
#include "net/protocol.hh"
#include "util/rng.hh"

namespace earthplus::net {

/** Deadline, retry and backoff knobs of a TileClient. */
struct ClientOptions
{
    /** Deadline for one receive()/query() read, ms (0 = no bound). */
    int readTimeoutMs = 30000;
    /**
     * Extra attempts query() may spend on Shed responses and
     * transport failures. 0 (the default) keeps the one-shot
     * behavior: the first Shed or failure is returned as-is.
     */
    int maxRetries = 0;
    /** First backoff step, ms (also the Shed fallback when the server
     *  sends no retryAfterMs hint). */
    uint32_t backoffBaseMs = 10;
};

/** Blocking client for one server connection. */
class TileClient
{
  public:
    TileClient() = default;

    /** Construct with explicit deadline/retry options. */
    explicit TileClient(const ClientOptions &options);

    /** Closes the connection if open. */
    ~TileClient();

    TileClient(const TileClient &) = delete;            ///< Non-copyable.
    TileClient &operator=(const TileClient &) = delete; ///< Non-copyable.

    /**
     * Connect (bounded by a 5 s deadline) and perform the EPTH
     * version handshake. False on connect failure, deadline expiry or
     * a version mismatch (the server's version is still readable via
     * serverVersion() to report the mismatch). Remembers host/port
     * for reconnect().
     */
    bool connect(const std::string &host, uint16_t port);

    /**
     * Re-dial the last connect()ed endpoint (counted in
     * net.client.reconnects). False when nothing was ever connected
     * or the dial fails.
     */
    bool reconnect();

    /** True while the connection is usable. */
    bool connected() const { return fd_ >= 0; }

    /** Protocol version the server announced in its EPTH. */
    uint32_t serverVersion() const { return serverVersion_; }

    /**
     * One round trip with retries: send `query`, wait for its
     * response. A Shed response or transport failure is retried up
     * to ClientOptions::maxRetries times (honouring the server's
     * retryAfterMs, reconnecting as needed); the last outcome is
     * returned. False on transport failure (result untouched); a
     * served error (NotFound/Shed/...) is a *successful* round trip
     * reported through result.error.
     */
    bool query(const ground::TileQuery &query,
               ground::TileResult &result);

    /** Send one query tagged `requestId` without waiting (bounded by
     *  the 5 s write deadline; never retries). */
    bool send(const ground::TileQuery &query, uint64_t requestId);

    /**
     * Block (bounded by readTimeoutMs) for the next EPTR frame. Fills
     * `result` and, when `requestId` is non-null, the id echoed by
     * the server (pipelined responses arrive in server completion
     * order, and shed responses overtake served ones). False on EOF,
     * deadline expiry or transport failure; never retries.
     */
    bool receive(ground::TileResult &result,
                 uint64_t *requestId = nullptr);

    /** Drop the connection. Idempotent. */
    void close();

    /** The options this client was built with. */
    const ClientOptions &options() const { return options_; }

  private:
    bool sendAll(const uint8_t *data, size_t size,
                 uint64_t deadlineMs);
    bool readFrame(Frame &out, uint64_t deadlineMs);
    bool queryOnce(const ground::TileQuery &query,
                   ground::TileResult &result);
    bool dial();

    ClientOptions options_;
    int fd_ = -1;
    uint32_t serverVersion_ = 0;
    uint64_t nextRequestId_ = 1;
    FrameReader reader_;
    std::string host_;
    uint16_t port_ = 0;
    bool everConnected_ = false;
    /** Backoff jitter, pinned so retry timing replays run to run. */
    Rng jitter_{0x6a77e7};
};

} // namespace earthplus::net

#endif // EARTHPLUS_NET_CLIENT_HH

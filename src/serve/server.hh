/**
 * @file
 * AlignServer: the binary alignment-serving front door.
 *
 * PR 4/5 made the engine a service in-process (bounded queue,
 * backpressure, metrics, scrape server); this server puts the
 * submission API itself behind a socket, speaking the serve/protocol
 * wire format, so a remote client can stream batches of pairs and read
 * typed results back. It composes the pieces of this subsystem:
 *
 *   accept -> Hello handshake (client id + priority)
 *          -> per-request quota check        (serve/quota)
 *          -> priority admission watermark   (shed low first)
 *          -> validation                     (align::validatePair)
 *          -> shard routing + dedup cache    (serve/router)
 *          -> engine submit                  (engine/engine)
 *          -> response writer                (in submission order)
 *
 * Threading: the server runs on the shared net::Listener core, as
 * MetricsServer does — one acceptor thread polls the TCP listener, the
 * optional unix listener and a self-pipe, and accepted connections queue
 * for a fixed handler pool. A handler owns one connection for its
 * lifetime: it reads and validates frames (the reader), while a
 * per-connection writer thread drains a BOUNDED queue of outgoing
 * responses. The bound is the backpressure contract: when a client
 * streams requests faster than its responses drain, the reader blocks
 * on the full queue, stops reading, and the kernel's TCP window pushes
 * back to the client — the server never buffers unboundedly for a slow
 * consumer.
 *
 * Framing: the reader recv()s into one per-connection FrameReader and
 * handles every complete frame it holds before the next recv(), so a
 * client that pipelines requests costs one syscall per burst, not two
 * per frame. The writer appends each response to a batch while the next
 * queued item is already answerable (a rejection, or a routed request
 * whose future is ready), then writes the batch with one send(). It
 * never waits to fill a batch, and responses keep submission order.
 *
 * Overload semantics, in the order a request meets them:
 *   1. connection cap     -> Error frame (Overloaded), connection closed
 *   2. client token bucket -> AlignResponse(Overloaded) for that request
 *   3. brownout           -> AlignResponse(Overloaded); when the smoothed
 *      response queue wait (EWMA of admission-to-response-ready time)
 *      crosses brownout_low, Low traffic sheds; past brownout_normal,
 *      Normal sheds too — a soft ramp that acts on observed latency
 *      BEFORE the hard pending cap is anywhere near
 *   4. pending watermark  -> AlignResponse(Overloaded); Low sheds at 1/2
 *      of pending_cap, Normal at 3/4, High only at the full cap — so
 *      under sustained overload low-priority traffic sheds first
 *
 * Deadline propagation: a request carrying a wire deadline budget
 * (negotiated via kFeatureDeadline) has the server-side time it already
 * spent subtracted on arrival; an exhausted budget is refused with
 * DeadlineExceeded before touching the router or an engine, and the
 * remainder rides into engine::SubmitOptions::timeout so expiry fires
 * queued (fast-fail) or mid-kernel (cooperative cancel gate).
 *
 * Watchdog: when watchdog_multiple > 0, a background thread scans live
 * connections and force-closes (SHUT_RDWR) any with outstanding work
 * but no reader/writer progress for watchdog_multiple x io_timeout —
 * a wedged peer or engine cannot pin a handler thread forever. Kills
 * are counted (watchdog_kills); the drain path still settles every
 * routed ticket so the ledger stays balanced.
 *
 * Graceful shutdown: stop() half-closes (SHUT_RD) every open
 * connection, so readers stop accepting new requests immediately while
 * every already-accepted request still completes and its response is
 * written before the connection closes. A connection still queued for
 * a handler when stop() begins is not served: it gets an Error frame
 * (Unavailable) instead of a HelloAck, counted under
 * connections_refused. No fd, thread, or pending future outlives
 * stop().
 *
 * Fault injection (GMX_FAULT_INJECTION builds): AcceptFail drops a
 * connection between accept and handshake, FrameTooLarge trips the
 * frame-size check spuriously, SlowClient stalls the response writer;
 * QueueFull forces the connection cap in the shared listener core.
 */

#ifndef GMX_SERVE_SERVER_HH
#define GMX_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "align/batch.hh"
#include "common/net.hh"
#include "common/status.hh"
#include "engine/engine.hh"
#include "serve/metrics.hh"
#include "serve/protocol.hh"
#include "serve/quota.hh"
#include "serve/router.hh"

namespace gmx::serve {

/** AlignServer construction parameters. */
struct AlignServerConfig
{
    /** TCP bind address. */
    std::string host = "127.0.0.1";

    /** TCP port; 0 picks an ephemeral port (read it back via port()). */
    u16 port = 0;

    /** Also listen on this unix-domain socket path (empty = TCP only). */
    std::string unix_path{};

    /** Handler pool size; each handler serves one connection at a time. */
    unsigned handler_threads = 4;

    /** Hard cap on concurrent accepted connections. */
    unsigned max_connections = 64;

    /** Per-connection socket read/write deadline. */
    std::chrono::milliseconds io_timeout{5000};

    /** Cap on one frame's payload; larger frames are a protocol error. */
    u32 max_frame_bytes = kDefaultMaxFrameBytes;

    /**
     * Bound on responses queued per connection (requests read but not
     * yet answered). A full queue blocks the reader — TCP backpressure.
     */
    size_t max_inflight_per_conn = 64;

    /**
     * Serve-level pending cap for priority shedding (0 disables).
     * Priority p is admitted while pending < watermark(p): Low at
     * pending_cap/2, Normal at 3*pending_cap/4, High at pending_cap.
     */
    size_t pending_cap = 256;

    /**
     * Brownout: smoothed queue wait (µs) above which Low-priority
     * requests are shed (0 disables the level).
     */
    std::chrono::microseconds brownout_low{0};

    /** Smoothed queue wait above which Normal sheds too (0 disables). */
    std::chrono::microseconds brownout_normal{0};

    /** EWMA smoothing factor for queue-wait samples, in (0, 1]. */
    double brownout_alpha = 0.2;

    /**
     * Watchdog force-closes a connection with outstanding work but no
     * progress for watchdog_multiple x io_timeout (0 disables).
     */
    unsigned watchdog_multiple = 0;

    /**
     * Input validation applied before a request reaches the router. A
     * pair validates as the length class its engines' cascade config
     * gives it (engine::lengthClassFor): a Long pair answers only to
     * reject_empty / reject_non_acgt / max_long_pair_bases.
     */
    align::InputLimits limits{};

    /** Per-client admission quotas (disabled by default). */
    QuotaConfig quota{};

    /** Shard routing + dedup cache parameters. */
    RouterConfig router{};
};

/**
 * Blocking-socket alignment server over one or more engines. The
 * engines must outlive the server; stop() (or destruction) is graceful
 * and idempotent.
 */
class AlignServer
{
  public:
    AlignServer(std::vector<engine::Engine *> engines,
                AlignServerConfig config = {});

    AlignServer(const AlignServer &) = delete;
    AlignServer &operator=(const AlignServer &) = delete;

    /** Bind, listen, and spawn the acceptor + handler pool. */
    Status start();

    /** Graceful shutdown; see the file comment. Idempotent. */
    void stop() { listener_.stop(); }

    bool running() const { return listener_.running(); }

    /** Bound TCP port (resolves port 0); 0 before start(). */
    u16 port() const { return listener_.port(); }

    /** Point-in-time serve counters, with live shard stats merged in. */
    ServeSnapshot serveSnapshot() const
    {
        return metrics_.snapshot(router_.shardStats());
    }

    /** The live counters (tests poll these without snapshot cost). */
    const ServeMetrics &metrics() const { return metrics_; }

    const ShardRouter &router() const { return router_; }
    const AlignServerConfig &config() const { return config_; }

  private:
    /** One queued outgoing item; the writer answers in FIFO order. */
    struct Outgoing
    {
        bool bye = false;      //!< send ByeAck, then the writer exits
        bool immediate = false; //!< encoded is ready (rejection path)
        /**
         * The immediate frame is an AlignResponse rejection and must be
         * counted as a response, keeping the ledger `requests ==
         * responses_ok + responses_failed` exact. Protocol Error frames
         * (immediate but not reject) answer no request and count only
         * under protocol_errors.
         */
        bool reject = false;
        std::string encoded;
        Ticket ticket; //!< router ticket (when !immediate && !bye)
        u64 id = 0;
        u32 max_edits = 0;
        /** When the item was queued (feeds the queue-wait EWMA). */
        std::chrono::steady_clock::time_point accepted{};
    };

    /** Shared reader/writer state for one live connection. */
    struct Conn
    {
        int fd = -1;
        std::string client_id;
        Priority priority = Priority::Normal;
        u8 features = 0; //!< negotiated feature bits (offer ∩ supported)

        std::mutex mu;
        std::condition_variable space_cv; //!< reader waits: queue full
        std::condition_variable data_cv;  //!< writer waits: queue empty
        std::deque<Outgoing> out;
        bool closing = false; //!< no more items will be queued

        /** A send failed: stop writing, keep draining tickets. */
        std::atomic<bool> dead{false};

        // Watchdog state: items queued-or-in-flight, and the steady
        // clock (µs) of the last observable reader/writer progress.
        std::atomic<u64> inflight{0};
        std::atomic<u64> last_progress_us{0};
        std::atomic<bool> watchdog_killed{false};
    };

    /** Refuse a connection with a typed Error frame (connections_refused). */
    void refuseConnection(int fd, StatusCode code, const char *why);
    /** stop()'s drain hook: join the watchdog, SHUT_RD every connection. */
    void drain();
    void handleConnection(int fd);
    /** The Hello/HelloAck exchange; false when the connection must close. */
    bool handshake(Conn &conn);
    void readerLoop(Conn &conn);
    void writerLoop(Conn &conn);
    /** True when @p item can be answered without waiting for an engine. */
    static bool ready(const Outgoing &item);
    void watchdogLoop();

    /** Queue one item, blocking while the connection's queue is full. */
    void enqueue(Conn &conn, Outgoing item);

    /**
     * Handle one decoded AlignRequest (quota/brownout/shed/validate/
     * deadline/route). @p received is when the frame left the socket,
     * anchoring the deadline-budget spend calculation.
     */
    void handleRequest(Conn &conn, AlignRequestFrame req,
                       std::chrono::steady_clock::time_point received);

    /** Brownout level from the queue-wait EWMA: 0 none, 1 Low, 2 +Normal. */
    unsigned brownoutLevel() const;

    /** Send @p frames encoded frames in one write, with accounting. */
    bool sendFrames(Conn &conn, const std::string &encoded, u64 frames);

    /** Protocol failure: count it, best-effort Error frame. */
    void protocolError(Conn &conn, const Status &error);

    /** Admission watermark for @p p (see pending_cap). */
    size_t watermark(Priority p) const;

    std::vector<engine::Engine *> engines_;
    AlignServerConfig config_;
    mutable ServeMetrics metrics_;
    QuotaRegistry quota_;
    ShardRouter router_;

    std::mutex conns_mu_;
    /** Live connections: stop()'s SHUT_RD sweep + the watchdog scan. */
    std::map<int, Conn *> open_conns_;

    std::mutex watchdog_mu_;
    std::condition_variable watchdog_cv_;
    std::thread watchdog_;

    /** Declared last, so destruction stops it before anything it uses. */
    net::Listener listener_;
};

} // namespace gmx::serve

#endif // GMX_SERVE_SERVER_HH

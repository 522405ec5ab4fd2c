/**
 * @file
 * HTTP/1.1 scrape server for the engine's observability surfaces.
 *
 * PR 3 made the engine inspectable through library calls
 * (MetricsSnapshot::toJson, renderOpenMetrics, TraceRecorder::toJson);
 * this server puts those behind a real socket so a deployed engine can
 * be monitored the way any production service is: a Prometheus scraper
 * polls /metrics, a dashboard reads /vars, an operator chasing one slow
 * request hits /trace?id=N, and an orchestrator health-checks /healthz.
 *
 * Endpoints (GET only; anything else is 405):
 *
 *   /metrics      OpenMetrics text (renderOpenMetrics of a live snapshot)
 *   /vars         the same snapshot as JSON (MetricsSnapshot::toJson)
 *   /trace        span ring + slow-request exemplars, one JSON object
 *   /trace?id=N   one request's span timeline (404 when not in the ring)
 *   /healthz      200 "ok" liveness probe
 *
 * Deliberately dependency-free and blocking: the server runs on the
 * shared net::Listener core (one acceptor thread polling the TCP
 * listener, the optional unix-domain listener and a self-pipe; a small
 * fixed pool of handler threads fed by a queue of accepted connections)
 * and adds only HTTP routing and its 503 refusal. Robustness is the
 * point, not throughput — a scrape endpoint serves a handful of pollers:
 *
 *   - hard cap on concurrent connections (503 beyond it, never queued
 *     unboundedly),
 *   - per-connection SO_RCVTIMEO/SO_SNDTIMEO deadlines, so a slow or
 *     dead client can stall a handler for at most io_timeout (408),
 *   - request-line + header size cap (431),
 *   - one request per connection ("Connection: close"), no keep-alive
 *     state machine to get wrong,
 *   - graceful stop(): the self-pipe unblocks poll(), handlers still
 *     answer every queued scrape (each bounded by io_timeout), and
 *     every thread is joined before stop() returns — no leaked fds or
 *     threads under ASan.
 *
 * Fault-injection integration (GMX_FAULT_INJECTION builds): QueueFull
 * forces the connection cap (503), TaskError fails a /metrics render
 * (500), and WorkerStall sleeps a handler mid-request, so test_chaos
 * can storm the scrape path with the same seeded harness as the engine.
 */

#ifndef GMX_ENGINE_SERVER_HH
#define GMX_ENGINE_SERVER_HH

#include <atomic>
#include <chrono>
#include <functional>
#include <string>

#include "common/net.hh"
#include "common/status.hh"
#include "common/types.hh"

namespace gmx::engine {

class Engine;

/** MetricsServer construction parameters. */
struct ServerConfig
{
    /** TCP bind address. */
    std::string host = "127.0.0.1";

    /** TCP port; 0 picks an ephemeral port (read it back via port()). */
    u16 port = 0;

    /** Also listen on this unix-domain socket path (empty = TCP only). */
    std::string unix_path{};

    /** Handler pool size (>= 1; each handler serves one connection). */
    unsigned handler_threads = 2;

    /**
     * Hard cap on concurrent accepted connections (queued + in-flight).
     * Connections beyond it are answered 503 and closed immediately.
     */
    unsigned max_connections = 32;

    /** Per-connection read/write deadline (SO_RCVTIMEO / SO_SNDTIMEO). */
    std::chrono::milliseconds io_timeout{2000};

    /** Request line + headers cap; longer requests are answered 431. */
    size_t max_request_bytes = 8192;

    /**
     * Extra OpenMetrics families appended to /metrics (before the
     * trailing `# EOF`). The serving layer registers its per-client /
     * per-shard / cache families here so one scrape covers the whole
     * deployment. Must return well-formed family blocks, no `# EOF`.
     */
    std::function<std::string()> extra_metrics{};

    /**
     * Extra JSON appended to /vars. When set, /vars becomes
     * {"engine":<snapshot>,"serve":<extra>} instead of the bare
     * snapshot object; the callback must return one JSON value.
     */
    std::function<std::string()> extra_vars{};
};

/**
 * Blocking-socket HTTP/1.1 scrape server over one Engine. Start it next
 * to the engine, point a scraper at it, stop() (or destroy) to shut
 * down; stop is graceful and idempotent. The referenced engine must
 * outlive the server.
 */
class MetricsServer
{
  public:
    explicit MetricsServer(const Engine &engine, ServerConfig config = {});

    MetricsServer(const MetricsServer &) = delete;
    MetricsServer &operator=(const MetricsServer &) = delete;

    /**
     * Bind, listen, and spawn the accept loop + handler pool. Returns a
     * typed error (and holds no resources) when a socket call fails —
     * e.g. the port is taken or the unix path is not bindable.
     */
    Status start() { return listener_.start(); }

    /**
     * Graceful shutdown: unblock the accept loop via the self-pipe,
     * serve every already-accepted connection, join all threads, close
     * all sockets. Idempotent; destruction runs it too.
     */
    void stop() { listener_.stop(); }

    bool running() const { return listener_.running(); }

    /** Bound TCP port (resolves port 0); 0 before start(). */
    u16 port() const { return listener_.port(); }

    /** Responses written (any status), and connections refused with 503. */
    u64 served() const { return served_.load(std::memory_order_relaxed); }
    u64 refused() const { return refused_.load(std::memory_order_relaxed); }

    const ServerConfig &config() const { return config_; }

  private:
    void handleConnection(int fd);

    /** Route a parsed request to a body + content type. */
    int route(const net::HttpRequestLine &req, std::string &body,
              std::string &content_type) const;
    void respond(int fd, int status, const std::string &content_type,
                 const std::string &body);

    const Engine &engine_;
    ServerConfig config_;

    std::atomic<u64> served_{0};
    std::atomic<u64> refused_{0};

    /** Declared last, so destruction stops it before anything it uses. */
    net::Listener listener_;
};

} // namespace gmx::engine

#endif // GMX_ENGINE_SERVER_HH

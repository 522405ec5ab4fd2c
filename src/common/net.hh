/**
 * @file
 * Shared blocking-socket plumbing for the serving layers.
 *
 * Both network front doors in this repository — the HTTP scrape server
 * (engine/server) and the binary alignment server (serve/server) — are
 * deliberately dependency-free blocking-socket designs, and both run on
 * the one Listener core declared here: TCP plus an optional unix
 * listener multiplexed with a self-pipe through poll(), per-connection
 * SO_RCVTIMEO/SO_SNDTIMEO deadlines, a connection cap, a fixed handler
 * pool fed by a queue of accepted connections, and an idempotent,
 * restartable graceful stop(). A server supplies only its protocol
 * through ListenerHooks. The partial-read/write helpers below are the
 * one implementation of the subtle parts (EINTR retries, MSG_NOSIGNAL,
 * timeout-vs-close classification, unix-path cleanup), shared by the
 * servers and the client/test side alike.
 *
 * Everything here is errno-faithful and returns typed gmx::Status (or
 * an IoResult for the per-call read/write classification); nothing
 * throws, and nothing allocates beyond the strings it returns.
 */

#ifndef GMX_COMMON_NET_HH
#define GMX_COMMON_NET_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace gmx::net {

/** Classification of one blocking read/write attempt. */
enum class IoResult {
    Ok,      //!< the full transfer completed
    Timeout, //!< SO_RCVTIMEO / SO_SNDTIMEO expired (slow or dead peer)
    Closed,  //!< the peer closed the connection cleanly
    Error,   //!< any other socket error (reset, EPIPE, ...)
};

/** Apply per-connection read+write deadlines (SO_RCVTIMEO/SO_SNDTIMEO). */
void setIoDeadlines(int fd, std::chrono::milliseconds timeout);

/**
 * Write the whole buffer, tolerating partial sends and EINTR. Sends with
 * MSG_NOSIGNAL so a vanished client produces EPIPE, not SIGPIPE.
 */
IoResult sendAll(int fd, const void *data, size_t len);

/**
 * Read exactly @p len bytes (looping over short reads and EINTR).
 * Returns Closed when the peer ends the stream before @p len bytes —
 * including mid-record, which framed protocols must treat as an error.
 */
IoResult recvExact(int fd, void *buf, size_t len);

/** Read at most @p cap bytes; @p got receives the count on Ok. */
IoResult recvSome(int fd, void *buf, size_t cap, size_t &got);

/** Read until the peer closes (one-shot HTTP-style responses). */
std::string recvToEof(int fd);

/** close(fd) and set it to -1; no-op when already negative. */
void closeFd(int &fd);

/** Blocking client connect to 127.0.0.1-style host:port; -1 on failure. */
int connectTcp(const std::string &host, u16 port,
               std::chrono::milliseconds io_timeout);

/** Blocking client connect to a unix-domain socket path; -1 on failure. */
int connectUnix(const std::string &path,
                std::chrono::milliseconds io_timeout);

/** Where a Listener binds and how it bounds its connections. */
struct ListenerOptions
{
    std::string host;
    u16 port = 0;               //!< 0 picks an ephemeral port
    std::string unix_path;      //!< also listen here (empty = TCP only)
    unsigned handler_threads = 1; //!< 0 counts as 1
    unsigned max_connections = 1; //!< queued + in-flight; 0 counts as 1
    std::chrono::milliseconds io_timeout{}; //!< per-connection deadline
};

/**
 * What a server plugs into the Listener. Hooks that take an fd run
 * before the core closes it and must not close it themselves.
 */
struct ListenerHooks
{
    /** Serve one connection on a handler thread (required). */
    std::function<void(int fd)> serve{};
    /** Answer a connection over the cap, on the acceptor (required). */
    std::function<void(int fd)> refuse{};
    /** Optional: vet a fresh connection before the cap; false drops it. */
    std::function<bool(int fd)> admit{};
    /** Optional: a connection took a slot and was queued. */
    std::function<void()> queued{};
    /**
     * Optional stop policy. Set: a connection a handler picks up after
     * stop() began is answered by this hook instead of served. Unset:
     * stop() still serves every queued connection, each bounded by
     * io_timeout.
     */
    std::function<void(int fd)> refuse_after_stop{};
    /** Optional: stop() runs it after the acceptor exits, before the
     *  handlers are joined — the place to unblock live connections. */
    std::function<void()> drain{};
};

/**
 * The listener core both servers run on. One acceptor thread polls the
 * TCP listener, the optional unix listener and a self-pipe; an accepted
 * connection gets the io deadline, reserves a slot under the connection
 * cap (the QueueFull fault point forces a refusal) and queues for a
 * fixed pool of handler threads. Exactly 1 + handler_threads threads.
 */
class Listener
{
  public:
    Listener(ListenerOptions options, ListenerHooks hooks);
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Bind, listen, and spawn the acceptor + handler pool. On failure
     * (port taken, unix path not bindable) nothing is held. A stopped
     * listener may be started again.
     */
    Status start();

    /**
     * Graceful and idempotent: wake and join the acceptor, run
     * hooks.drain, let the handlers empty the queue (see
     * refuse_after_stop), join them, close every socket and unlink the
     * unix path.
     */
    void stop();

    bool running() const { return running_.load(std::memory_order_acquire); }

    /** True from the start of stop() until the next start(). */
    bool stopping() const
    {
        return stopping_.load(std::memory_order_acquire);
    }

    /** Bound TCP port (resolves port 0); 0 when not running. */
    u16 port() const { return bound_port_; }

  private:
    void acceptLoop();
    void handlerLoop();
    /** Take a connection slot; false when the cap (or QueueFull) refuses. */
    bool reserveSlot();

    ListenerOptions options_;
    ListenerHooks hooks_;

    int tcp_fd_ = -1;
    int unix_fd_ = -1;
    int wake_[2] = {-1, -1}; //!< self-pipe: stop() -> the acceptor's poll()
    u16 bound_port_ = 0;

    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<unsigned> active_{0}; //!< queued + in-flight connections

    std::mutex mu_;
    std::condition_variable conn_cv_;
    std::deque<int> conn_queue_; //!< accepted fds awaiting a handler
    bool accept_done_ = false;   //!< stop() joined the acceptor

    std::thread acceptor_;
    std::vector<std::thread> handlers_;
};

// ---------------------------------------------------------------------
// Minimal HTTP/1.1 request-side helpers (the scrape server's dialect:
// one request per connection, GET-only routing done by the caller).
// ---------------------------------------------------------------------

/** One parsed request line. */
struct HttpRequestLine
{
    std::string method;
    std::string path;  //!< target before '?'
    std::string query; //!< target after '?' (no '?')
};

/** Parse "GET /path?query HTTP/1.1" into its parts; false on garbage. */
bool parseHttpRequestLine(const std::string &raw, HttpRequestLine &out);

/**
 * Read an HTTP request (through the blank line) into @p raw. On failure
 * returns false with @p error_status set to the HTTP code the caller
 * should answer: 431 (too large), 408 (read deadline expired), or 0
 * (peer closed / hard error — drop with no reply).
 */
bool readHttpRequest(int fd, size_t max_bytes, std::string &raw,
                     int &error_status);

/** Canonical reason phrase for the status codes the servers emit. */
const char *httpReasonPhrase(int status);

} // namespace gmx::net

#endif // GMX_COMMON_NET_HH

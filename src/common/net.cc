#include "common/net.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "engine/faults.hh"

namespace gmx::net {


void
setIoDeadlines(int fd, std::chrono::milliseconds timeout)
{
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

IoResult
sendAll(int fd, const void *data, size_t len)
{
    const char *p = static_cast<const char *>(data);
    size_t off = 0;
    while (off < len) {
        const ssize_t n = ::send(fd, p + off, len - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return IoResult::Timeout;
        return IoResult::Error;
    }
    return IoResult::Ok;
}

IoResult
recvExact(int fd, void *buf, size_t len)
{
    char *p = static_cast<char *>(buf);
    size_t off = 0;
    while (off < len) {
        const ssize_t n = ::recv(fd, p + off, len - off, 0);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n == 0)
            return IoResult::Closed;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return IoResult::Timeout;
        return IoResult::Error;
    }
    return IoResult::Ok;
}

IoResult
recvSome(int fd, void *buf, size_t cap, size_t &got)
{
    got = 0;
    for (;;) {
        const ssize_t n = ::recv(fd, buf, cap, 0);
        if (n > 0) {
            got = static_cast<size_t>(n);
            return IoResult::Ok;
        }
        if (n == 0)
            return IoResult::Closed;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return IoResult::Timeout;
        return IoResult::Error;
    }
}

std::string
recvToEof(int fd)
{
    std::string out;
    char buf[4096];
    for (;;) {
        size_t got = 0;
        if (recvSome(fd, buf, sizeof buf, got) != IoResult::Ok)
            return out; // close, timeout, or reset — any of them ends it
        out.append(buf, got);
    }
}

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

namespace {

/** errno-carrying internal Status for a failed socket call. */
Status
errnoStatus(const char *what)
{
    return Status::internal(std::string(what) + ": " +
                            std::strerror(errno));
}

/**
 * Bind + listen a TCP socket on host:port, writing the chosen port
 * (port 0 = ephemeral) to @p bound_port. On failure the fd is closed.
 */
Status
listenTcp(const std::string &host, u16 port, int &fd, u16 &bound_port)
{
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return errnoStatus("socket(AF_INET)");
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        closeFd(fd);
        return Status::invalidInput("listenTcp: bad host \"" + host + "\"");
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) < 0) {
        const Status s = errnoStatus("bind");
        closeFd(fd);
        return s;
    }
    if (::listen(fd, 64) < 0) {
        const Status s = errnoStatus("listen");
        closeFd(fd);
        return s;
    }
    socklen_t len = sizeof addr;
    bound_port = port;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) == 0)
        bound_port = ntohs(addr.sin_port);
    return Status();
}

/** Bind + listen a unix socket, unlinking a stale file at @p path. */
Status
listenUnix(const std::string &path, int &fd)
{
    sockaddr_un uaddr{};
    if (path.size() >= sizeof uaddr.sun_path)
        return Status::invalidInput("listenUnix: path too long");
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return errnoStatus("socket(AF_UNIX)");
    uaddr.sun_family = AF_UNIX;
    std::strncpy(uaddr.sun_path, path.c_str(), sizeof uaddr.sun_path - 1);
    (void)::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr *>(&uaddr), sizeof uaddr) < 0 ||
        ::listen(fd, 16) < 0) {
        const Status s = errnoStatus("bind/listen(unix)");
        closeFd(fd);
        return s;
    }
    return Status();
}

} // namespace

int
connectTcp(const std::string &host, u16 port,
           std::chrono::milliseconds io_timeout)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) <
        0) {
        ::close(fd);
        return -1;
    }
    setIoDeadlines(fd, io_timeout);
    return fd;
}

int
connectUnix(const std::string &path, std::chrono::milliseconds io_timeout)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path)
        return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) <
        0) {
        ::close(fd);
        return -1;
    }
    setIoDeadlines(fd, io_timeout);
    return fd;
}

Listener::Listener(ListenerOptions options, ListenerHooks hooks)
    : options_(std::move(options)), hooks_(std::move(hooks))
{
    options_.handler_threads = std::max(1u, options_.handler_threads);
    options_.max_connections = std::max(1u, options_.max_connections);
}

Listener::~Listener()
{
    stop();
}

Status
Listener::start()
{
    if (running_.load(std::memory_order_acquire))
        return Status::internal("listener already running");
    stopping_.store(false, std::memory_order_release);

    if (Status s = listenTcp(options_.host, options_.port, tcp_fd_,
                             bound_port_);
        !s.ok())
        return s;

    if (!options_.unix_path.empty()) {
        if (Status s = listenUnix(options_.unix_path, unix_fd_); !s.ok()) {
            closeFd(tcp_fd_);
            return s;
        }
    }

    if (::pipe(wake_) < 0) {
        const Status s = errnoStatus("pipe");
        closeFd(unix_fd_);
        closeFd(tcp_fd_);
        return s;
    }

    accept_done_ = false; // no thread of this listener runs yet
    running_.store(true, std::memory_order_release);
    handlers_.reserve(options_.handler_threads);
    for (unsigned i = 0; i < options_.handler_threads; ++i)
        handlers_.emplace_back([this] { handlerLoop(); });
    acceptor_ = std::thread([this] { acceptLoop(); });
    return Status();
}

void
Listener::stop()
{
    // One stopper wins and performs the whole teardown; a second call
    // after stop() has returned is a no-op (idempotent destructor path).
    if (stopping_.exchange(true, std::memory_order_acq_rel))
        return;
    if (!running_.load(std::memory_order_acquire))
        return;
    const char byte = 1;
    (void)!::write(wake_[1], &byte, 1);
    if (acceptor_.joinable())
        acceptor_.join();
    if (hooks_.drain)
        hooks_.drain();
    {
        // Handlers exit only once the acceptor can queue nothing more.
        std::lock_guard<std::mutex> lk(mu_);
        accept_done_ = true;
    }
    conn_cv_.notify_all();
    for (std::thread &t : handlers_)
        t.join();
    handlers_.clear();
    closeFd(tcp_fd_);
    closeFd(unix_fd_);
    closeFd(wake_[0]);
    closeFd(wake_[1]);
    if (!options_.unix_path.empty())
        (void)::unlink(options_.unix_path.c_str());
    bound_port_ = 0;
    running_.store(false, std::memory_order_release);
}

bool
Listener::reserveSlot()
{
    // The QueueFull fault point forces a refusal so chaos tests can
    // storm this path.
    if (GMX_INJECT_FAULT(engine::faults::Point::QueueFull))
        return false;
    unsigned cur = active_.load(std::memory_order_relaxed);
    while (cur < options_.max_connections) {
        if (active_.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_acq_rel))
            return true;
    }
    return false;
}

void
Listener::acceptLoop()
{
    for (;;) {
        pollfd pfds[3];
        nfds_t n = 0;
        pfds[n++] = {wake_[0], POLLIN, 0};
        pfds[n++] = {tcp_fd_, POLLIN, 0};
        if (unix_fd_ >= 0)
            pfds[n++] = {unix_fd_, POLLIN, 0};
        const int rc = ::poll(pfds, n, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (pfds[0].revents != 0)
            return; // stop() signalled through the self-pipe
        for (nfds_t i = 1; i < n; ++i) {
            if ((pfds[i].revents & POLLIN) == 0)
                continue;
            const int conn =
                ::accept4(pfds[i].fd, nullptr, nullptr, SOCK_CLOEXEC);
            if (conn < 0)
                continue;
            if (hooks_.admit && !hooks_.admit(conn)) {
                ::close(conn);
                continue;
            }
            setIoDeadlines(conn, options_.io_timeout);

            // Connection cap: reserve a slot or refuse right here — the
            // queue of accepted connections stays bounded by the cap,
            // not by how fast clients arrive.
            if (!reserveSlot()) {
                hooks_.refuse(conn);
                ::close(conn);
                continue;
            }
            if (hooks_.queued)
                hooks_.queued();
            {
                std::lock_guard<std::mutex> lk(mu_);
                conn_queue_.push_back(conn);
            }
            conn_cv_.notify_one();
        }
    }
}

void
Listener::handlerLoop()
{
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lk(mu_);
            conn_cv_.wait(lk, [this] {
                return !conn_queue_.empty() || accept_done_;
            });
            if (conn_queue_.empty())
                return; // stopping, and every queued connection handled
            fd = conn_queue_.front();
            conn_queue_.pop_front();
        }
        if (hooks_.refuse_after_stop &&
            stopping_.load(std::memory_order_acquire))
            hooks_.refuse_after_stop(fd);
        else
            hooks_.serve(fd);
        ::close(fd);
        active_.fetch_sub(1, std::memory_order_acq_rel);
    }
}

bool
parseHttpRequestLine(const std::string &raw, HttpRequestLine &out)
{
    const size_t eol = raw.find("\r\n");
    if (eol == std::string::npos)
        return false;
    const std::string line = raw.substr(0, eol);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 == sp1)
        return false;
    if (line.compare(sp2 + 1, 5, "HTTP/") != 0)
        return false;
    out.method = line.substr(0, sp1);
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (target.empty() || target[0] != '/')
        return false;
    const size_t q = target.find('?');
    out.path = target.substr(0, q);
    out.query = q == std::string::npos ? "" : target.substr(q + 1);
    return true;
}

bool
readHttpRequest(int fd, size_t max_bytes, std::string &raw,
                int &error_status)
{
    char buf[2048];
    while (raw.find("\r\n\r\n") == std::string::npos) {
        if (raw.size() > max_bytes) {
            error_status = 431;
            return false;
        }
        size_t got = 0;
        switch (recvSome(fd, buf, sizeof buf, got)) {
          case IoResult::Ok:
            raw.append(buf, got);
            continue;
          case IoResult::Timeout:
            error_status = 408; // SO_RCVTIMEO expired: slow client
            return false;
          case IoResult::Closed:
          case IoResult::Error:
            error_status = 0; // drop silently
            return false;
        }
    }
    if (raw.size() > max_bytes) {
        error_status = 431;
        return false;
    }
    return true;
}

const char *
httpReasonPhrase(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 400:
        return "Bad Request";
      case 404:
        return "Not Found";
      case 405:
        return "Method Not Allowed";
      case 408:
        return "Request Timeout";
      case 431:
        return "Request Header Fields Too Large";
      case 500:
        return "Internal Server Error";
      case 503:
        return "Service Unavailable";
    }
    return "Unknown";
}

} // namespace gmx::net

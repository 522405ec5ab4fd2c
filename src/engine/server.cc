#include "engine/server.hh"

#include <sstream>

#include "engine/engine.hh"
#include "engine/exporter.hh"
#include "engine/faults.hh"
#include "engine/trace.hh"

namespace gmx::engine {

MetricsServer::MetricsServer(const Engine &engine, ServerConfig config)
    : engine_(engine), config_(std::move(config)),
      listener_({config_.host, config_.port, config_.unix_path,
                 config_.handler_threads, config_.max_connections,
                 config_.io_timeout},
                {.serve = [this](int fd) { handleConnection(fd); },
                 .refuse =
                     [this](int fd) {
                         refused_.fetch_add(1, std::memory_order_relaxed);
                         respond(fd, 503, "text/plain; charset=utf-8",
                                 "connection limit reached\n");
                     }})
{
}

int
MetricsServer::route(const net::HttpRequestLine &req, std::string &body,
                     std::string &content_type) const
{
    content_type = "text/plain; charset=utf-8";
    if (req.method != "GET") {
        body = "only GET is supported\n";
        return 405;
    }
    if (req.path == "/healthz") {
        body = "ok\n";
        return 200;
    }
    if (req.path == "/metrics") {
        if (GMX_INJECT_FAULT(faults::Point::TaskError)) {
            body = "injected scrape failure\n";
            return 500;
        }
        content_type =
            "application/openmetrics-text; version=1.0.0; charset=utf-8";
        body = renderOpenMetrics(engine_.metrics());
        if (config_.extra_metrics) {
            // Splice the registered extra families in before the
            // mandatory trailer so the exposition stays one document.
            constexpr const char kEof[] = "# EOF\n";
            if (body.size() >= sizeof kEof - 1)
                body.resize(body.size() - (sizeof kEof - 1));
            body += config_.extra_metrics();
            body += kEof;
        }
        return 200;
    }
    if (req.path == "/vars") {
        content_type = "application/json; charset=utf-8";
        if (config_.extra_vars)
            body = "{\"engine\":" + engine_.metrics().toJson() +
                   ",\"serve\":" + config_.extra_vars() + "}";
        else
            body = engine_.metrics().toJson();
        return 200;
    }
    if (req.path == "/trace") {
        content_type = "application/json; charset=utf-8";
        if (req.query.empty()) {
            // Whole observability dump: the span ring plus the rolling
            // slow-request exemplars, one object.
            body = "{\"ring\":" + engine_.trace().toJson() +
                   ",\"slow\":" + engine_.slowRequests().toJson() + "}";
            return 200;
        }
        if (req.query.compare(0, 3, "id=") != 0 || req.query.size() == 3) {
            content_type = "text/plain; charset=utf-8";
            body = "expected /trace?id=<request id>\n";
            return 400;
        }
        u64 id = 0;
        for (size_t i = 3; i < req.query.size(); ++i) {
            const char c = req.query[i];
            if (c < '0' || c > '9') {
                content_type = "text/plain; charset=utf-8";
                body = "expected /trace?id=<request id>\n";
                return 400;
            }
            id = id * 10 + static_cast<u64>(c - '0');
        }
        const bool found = !engine_.trace().spansFor(id).empty();
        body = engine_.trace().jsonFor(id);
        return found ? 200 : 404;
    }
    body = "unknown path (try /metrics /vars /trace /healthz)\n";
    return 404;
}

void
MetricsServer::respond(int fd, int status, const std::string &content_type,
                       const std::string &body)
{
    std::ostringstream os;
    os << "HTTP/1.1 " << status << " " << net::httpReasonPhrase(status)
       << "\r\n"
       << "Content-Type: " << content_type << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n";
    if (status == 405)
        os << "Allow: GET\r\n";
    os << "\r\n" << body;
    const std::string out = os.str();
    (void)net::sendAll(fd, out.data(), out.size());
    served_.fetch_add(1, std::memory_order_relaxed);
}

void
MetricsServer::handleConnection(int fd)
{
    // WorkerStall: a chaos plan can sleep a handler here, turning it
    // into the slow server the connection cap and timeouts exist for.
    GMX_FAULT_STALL();

    std::string raw;
    int error_status = 0;
    if (!net::readHttpRequest(fd, config_.max_request_bytes, raw,
                              error_status)) {
        if (error_status != 0)
            respond(fd, error_status, "text/plain; charset=utf-8",
                    error_status == 431 ? "request too large\n"
                                        : "request timed out\n");
        return;
    }
    net::HttpRequestLine req;
    if (!net::parseHttpRequestLine(raw, req)) {
        respond(fd, 400, "text/plain; charset=utf-8",
                "malformed request line\n");
        return;
    }
    std::string body, content_type;
    const int status = route(req, body, content_type);
    respond(fd, status, content_type, body);
}

} // namespace gmx::engine

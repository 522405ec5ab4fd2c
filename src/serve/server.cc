#include "serve/server.hh"

#include <sys/socket.h>

#include <algorithm>
#include <string_view>

#include "common/logging.hh"
#include "engine/faults.hh"

namespace gmx::serve {

namespace {

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

u64
steadyMicros()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::string
capMessage(const std::string &msg)
{
    if (msg.size() <= kMaxMessageBytes)
        return msg;
    return msg.substr(0, kMaxMessageBytes);
}

/** An already-encoded AlignResponse carrying a rejection. */
AlignResponseFrame
rejection(u64 id, StatusCode code, std::string message)
{
    AlignResponseFrame f;
    f.id = id;
    f.code = code;
    f.distance = align::kNoAlignment;
    f.message = capMessage(std::move(message));
    return f;
}

} // namespace

AlignServer::AlignServer(std::vector<engine::Engine *> engines,
                         AlignServerConfig config)
    : engines_(std::move(engines)), config_(std::move(config)),
      quota_(config_.quota),
      router_(engines_, config_.router, &metrics_),
      listener_(
          {config_.host, config_.port, config_.unix_path,
           config_.handler_threads, config_.max_connections,
           config_.io_timeout},
          {.serve = [this](int fd) { handleConnection(fd); },
           .refuse =
               [this](int fd) {
                   refuseConnection(fd, StatusCode::Overloaded,
                                    "connection limit reached");
               },
           // AcceptFail: the client vanished between accept and
           // handshake; count it and keep accepting.
           .admit =
               [this](int) {
                   if (!GMX_INJECT_FAULT(engine::faults::Point::AcceptFail))
                       return true;
                   metrics_.accept_failures.fetch_add(
                       1, std::memory_order_relaxed);
                   return false;
               },
           .queued =
               [this] {
                   metrics_.connections_accepted.fetch_add(
                       1, std::memory_order_relaxed);
               },
           .refuse_after_stop =
               [this](int fd) {
                   refuseConnection(fd, StatusCode::Unavailable,
                                    "server is stopping");
               },
           .drain = [this] { drain(); }})
{
    if (config_.max_inflight_per_conn == 0)
        config_.max_inflight_per_conn = 1;
    if (config_.max_frame_bytes < 64)
        config_.max_frame_bytes = 64; // room for any fixed-field frame
    if (config_.brownout_alpha <= 0.0 || config_.brownout_alpha > 1.0)
        config_.brownout_alpha = 0.2;
    // The front door validates a pair as the length class the engines
    // will route it to (step 4), so they must all draw that line alike.
    if (engines_.empty())
        GMX_FATAL("AlignServer: needs at least one engine");
    const engine::CascadeConfig &first = engines_.front()->config().cascade;
    for (const engine::Engine *e : engines_) {
        const engine::CascadeConfig &c = e->config().cascade;
        const bool same_kernel =
            c.long_kernel == first.long_kernel ||
            (c.long_kernel != nullptr && first.long_kernel != nullptr &&
             std::string_view(c.long_kernel) == first.long_kernel);
        if (c.enabled != first.enabled ||
            c.long_threshold != first.long_threshold || !same_kernel)
            GMX_FATAL("AlignServer: engines disagree on the long length "
                      "class (cascade enabled/long_threshold/long_kernel)");
    }
}

Status
AlignServer::start()
{
    if (Status s = listener_.start(); !s.ok())
        return s;
    if (config_.watchdog_multiple > 0)
        watchdog_ = std::thread([this] { watchdogLoop(); });
    return Status();
}

void
AlignServer::drain()
{
    watchdog_cv_.notify_all();
    if (watchdog_.joinable())
        watchdog_.join();
    // Half-close every live connection: readers see EOF and stop taking
    // new requests; writers still flush every accepted request's
    // response through the intact write side (graceful drain).
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (const auto &[fd, conn] : open_conns_)
        (void)::shutdown(fd, SHUT_RD);
}

void
AlignServer::refuseConnection(int fd, StatusCode code, const char *why)
{
    metrics_.connections_refused.fetch_add(1, std::memory_order_relaxed);
    const std::string err = encodeError({code, why});
    (void)net::sendAll(fd, err.data(), err.size());
}

size_t
AlignServer::watermark(Priority p) const
{
    const size_t cap = config_.pending_cap;
    size_t mark = cap;
    if (p == Priority::Low)
        mark = cap / 2;
    else if (p == Priority::Normal)
        mark = cap - cap / 4;
    return mark == 0 ? 1 : mark;
}

bool
AlignServer::sendFrames(Conn &conn, const std::string &encoded, u64 frames)
{
    if (conn.dead.load(std::memory_order_relaxed))
        return false;
    // SlowClient: a chaos plan stalls the writer here, modelling a
    // client that stops draining; the bounded per-connection queue and
    // the reader's blocking enqueue must hold the line.
    GMX_FAULT_STALL_AT(engine::faults::Point::SlowClient);
    if (net::sendAll(conn.fd, encoded.data(), encoded.size()) !=
        net::IoResult::Ok) {
        conn.dead.store(true, std::memory_order_relaxed);
        return false;
    }
    metrics_.frames_out.fetch_add(frames, std::memory_order_relaxed);
    metrics_.bytes_out.fetch_add(encoded.size(),
                                 std::memory_order_relaxed);
    return true;
}

void
AlignServer::enqueue(Conn &conn, Outgoing item)
{
    item.accepted = std::chrono::steady_clock::now();
    conn.inflight.fetch_add(1, std::memory_order_relaxed);
    conn.last_progress_us.store(steadyMicros(), std::memory_order_relaxed);
    std::unique_lock<std::mutex> lk(conn.mu);
    // Blocking here is the point: a full queue stops the reader, the
    // socket receive buffer fills, and TCP pushes back to the client.
    conn.space_cv.wait(lk, [&] {
        return conn.out.size() < config_.max_inflight_per_conn;
    });
    conn.out.push_back(std::move(item));
    lk.unlock();
    conn.data_cv.notify_one();
}

void
AlignServer::protocolError(Conn &conn, const Status &error)
{
    metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    Outgoing o;
    o.immediate = true;
    o.encoded = encodeError({error.code(), capMessage(error.message())});
    enqueue(conn, std::move(o));
}

unsigned
AlignServer::brownoutLevel() const
{
    const u64 ewma =
        metrics_.queue_wait_ewma_us.load(std::memory_order_relaxed);
    unsigned level = 0;
    if (config_.brownout_low.count() > 0 &&
        ewma >= static_cast<u64>(config_.brownout_low.count()))
        level = 1;
    if (config_.brownout_normal.count() > 0 &&
        ewma >= static_cast<u64>(config_.brownout_normal.count()))
        level = 2;
    return level;
}

void
AlignServer::handleRequest(Conn &conn, AlignRequestFrame req,
                           std::chrono::steady_clock::time_point received)
{
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    metrics_.noteClient(conn.client_id, ServeMetrics::ClientEvent::Request);

    // 1. Per-client token bucket.
    if (!quota_.admit(conn.client_id, monotonicSeconds())) {
        metrics_.quota_throttled.fetch_add(1, std::memory_order_relaxed);
        metrics_.noteClient(conn.client_id,
                            ServeMetrics::ClientEvent::Throttled);
        Outgoing o;
        o.immediate = true;
        o.reject = true;
        o.encoded = encodeAlignResponse(
            rejection(req.id, StatusCode::Overloaded,
                      "client quota exhausted"));
        enqueue(conn, std::move(o));
        return;
    }

    // 2. Brownout: when the smoothed queue wait says responses are
    //    already late, shed by priority BEFORE the hard pending cap —
    //    a latency-driven soft ramp, Low first, mirroring watermarks.
    const unsigned level = brownoutLevel();
    metrics_.brownout_level.store(level, std::memory_order_relaxed);
    if ((level >= 1 && conn.priority == Priority::Low) ||
        (level >= 2 && conn.priority == Priority::Normal)) {
        metrics_.brownout_shed[static_cast<unsigned>(conn.priority)]
            .fetch_add(1, std::memory_order_relaxed);
        metrics_.noteClient(conn.client_id,
                            ServeMetrics::ClientEvent::Shed);
        Outgoing o;
        o.immediate = true;
        o.reject = true;
        o.encoded = encodeAlignResponse(rejection(
            req.id, StatusCode::Overloaded,
            std::string("brownout: queue wait over budget (priority ") +
                priorityName(conn.priority) + ")"));
        enqueue(conn, std::move(o));
        return;
    }

    // 3. Priority admission: under load, low watermarks trip first.
    if (config_.pending_cap > 0) {
        const u64 pending =
            metrics_.pending.load(std::memory_order_relaxed);
        if (pending >= watermark(conn.priority)) {
            metrics_.shed_by_priority[static_cast<unsigned>(conn.priority)]
                .fetch_add(1, std::memory_order_relaxed);
            metrics_.noteClient(conn.client_id,
                                ServeMetrics::ClientEvent::Shed);
            Outgoing o;
            o.immediate = true;
            o.reject = true;
            o.encoded = encodeAlignResponse(rejection(
                req.id, StatusCode::Overloaded,
                std::string("shed under load (priority ") +
                    priorityName(conn.priority) + ")"));
            enqueue(conn, std::move(o));
            return;
        }
    }

    // 4. Validation, before the router so rejects never touch an engine
    //    or pollute the cache.
    seq::SequencePair pair{seq::Sequence(std::move(req.pattern)),
                           seq::Sequence(std::move(req.text))};
    // Class-aware validation: long-read pairs are judged by the long
    // class's own cap, not the short-class length/skew limits (the
    // engine's streamed tier serves them in O(window) memory). The class
    // comes from the engines' own cascade config, so the front door
    // admits exactly what they will stream.
    const align::LengthClass klass = engine::lengthClassFor(
        engines_.front()->config().cascade, pair.pattern.size(),
        pair.text.size());
    if (Status v = align::validatePair(pair, config_.limits, klass);
        !v.ok()) {
        Outgoing o;
        o.immediate = true;
        o.reject = true;
        o.encoded = encodeAlignResponse(
            rejection(req.id, v.code(), v.message()));
        enqueue(conn, std::move(o));
        return;
    }

    // 5. Deadline budget: subtract the serve-side time this request
    //    already spent; an exhausted budget is refused HERE, before the
    //    router or an engine sees it (the per-tier counters prove no
    //    kernel ran). The remainder becomes the engine-side timeout so
    //    expiry fires queued or mid-kernel via the cancel gate.
    std::chrono::nanoseconds timeout{0};
    if (req.deadline_us > 0) {
        metrics_.deadline_requests.fetch_add(1, std::memory_order_relaxed);
        metrics_.deadline_budget_us.fetch_add(req.deadline_us,
                                              std::memory_order_relaxed);
        auto spent = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - received);
        // ClockSkew: a chaos plan shifts the observed spend, modelling a
        // peer whose budget was computed against a skewed clock; the
        // clamp keeps a negative shift from inflating the budget.
        spent += GMX_FAULT_SKEW();
        if (spent.count() < 0)
            spent = std::chrono::microseconds{0};
        metrics_.deadline_queue_spent_us.fetch_add(
            static_cast<u64>(spent.count()), std::memory_order_relaxed);
        if (static_cast<u64>(spent.count()) >= req.deadline_us) {
            metrics_.deadline_refused.fetch_add(1,
                                                std::memory_order_relaxed);
            Outgoing o;
            o.immediate = true;
            o.reject = true;
            o.encoded = encodeAlignResponse(rejection(
                req.id, StatusCode::DeadlineExceeded,
                "deadline budget exhausted before dispatch"));
            enqueue(conn, std::move(o));
            return;
        }
        timeout = std::chrono::microseconds(req.deadline_us) - spent;
    }

    // 6. Route (cache hit, coalesce, or least-loaded engine).
    Outgoing o;
    o.ticket =
        router_.submit(pair, req.want_cigar, req.max_edits, timeout);
    o.id = req.id;
    o.max_edits = req.max_edits;
    const u64 now =
        metrics_.pending.fetch_add(1, std::memory_order_relaxed) + 1;
    metrics_.notePendingPeak(now);
    enqueue(conn, std::move(o));
}

bool
AlignServer::ready(const Outgoing &item)
{
    return item.bye || item.immediate ||
           item.ticket.future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
}

void
AlignServer::writerLoop(Conn &conn)
{
    // Responses that are ready back to back leave in one send: the
    // writer appends while the next queued item needs no wait (up to
    // kMaxBatchBytes), then flushes. Order stays the queue's, which is
    // submission order.
    constexpr size_t kMaxBatchBytes = 64 * 1024;
    std::string batch;
    u64 frames = 0;
    for (;;) {
        Outgoing item;
        {
            std::unique_lock<std::mutex> lk(conn.mu);
            conn.data_cv.wait(lk, [&] {
                return !conn.out.empty() || conn.closing;
            });
            if (conn.out.empty())
                return; // closing and fully drained (nothing unsent)
            item = std::move(conn.out.front());
            conn.out.pop_front();
        }
        conn.space_cv.notify_one();
        conn.last_progress_us.store(steadyMicros(),
                                    std::memory_order_relaxed);

        if (item.bye) {
            batch += encodeByeAck();
        } else if (item.immediate) {
            batch += item.encoded;
            // Rejections count as responses whether or not the bytes
            // landed, matching the routed path below.
            if (item.reject) {
                metrics_.responses_failed.fetch_add(
                    1, std::memory_order_relaxed);
                metrics_.noteClient(conn.client_id,
                                    ServeMetrics::ClientEvent::Failed);
            }
        } else {
            // A routed request: wait for the engine (futures are always
            // fulfilled with a Result, even across engine stop()).
            const engine::Engine::AlignOutcome &outcome =
                item.ticket.future.get();
            metrics_.pending.fetch_sub(1, std::memory_order_relaxed);
            // Admission-to-response-ready time feeds the brownout EWMA
            // and the breaker's latency leg.
            const auto waited =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - item.accepted);
            const u64 waited_us =
                waited.count() < 0 ? 0 : static_cast<u64>(waited.count());
            metrics_.noteQueueWait(waited_us, config_.brownout_alpha);
            router_.complete(item.ticket,
                             outcome.ok() ? StatusCode::Ok
                                          : outcome.status().code(),
                             waited_us);

            AlignResponseFrame resp;
            resp.id = item.id;
            resp.cache_hit =
                item.ticket.cache_hit || item.ticket.coalesced;
            if (outcome.ok()) {
                const align::AlignResult &r = outcome.value();
                i64 d = r.distance;
                bool has_cigar = r.has_cigar;
                // max_edits is a post-filter: the cascade computes the
                // true distance; beyond the client's budget it becomes
                // not-found.
                if (item.max_edits > 0 && d != align::kNoAlignment &&
                    d > static_cast<i64>(item.max_edits)) {
                    d = align::kNoAlignment;
                    has_cigar = false;
                }
                resp.code = StatusCode::Ok;
                resp.distance = d;
                resp.has_cigar = has_cigar && d != align::kNoAlignment;
                if (resp.has_cigar)
                    resp.cigar = r.cigar.str();
                metrics_.responses_ok.fetch_add(1,
                                                std::memory_order_relaxed);
                metrics_.noteClient(conn.client_id,
                                    ServeMetrics::ClientEvent::Completed);
            } else {
                resp.code = outcome.status().code();
                resp.distance = align::kNoAlignment;
                resp.message = capMessage(outcome.status().message());
                metrics_.responses_failed.fetch_add(
                    1, std::memory_order_relaxed);
                metrics_.noteClient(conn.client_id,
                                    ServeMetrics::ClientEvent::Failed);
            }
            batch += encodeAlignResponse(resp);
        }
        ++frames;

        bool more = false;
        {
            std::lock_guard<std::mutex> lk(conn.mu);
            more = !conn.out.empty() && ready(conn.out.front());
        }
        if (more && batch.size() < kMaxBatchBytes)
            continue;
        (void)sendFrames(conn, batch, frames);
        batch.clear();
        conn.last_progress_us.store(steadyMicros(),
                                    std::memory_order_relaxed);
        conn.inflight.fetch_sub(frames, std::memory_order_relaxed);
        frames = 0;
    }
}

void
AlignServer::readerLoop(Conn &conn)
{
    FrameReader in;
    for (;;) {
        FrameHeader fh;
        std::string_view payload;
        Status hs;
        const FrameReader::Next next =
            in.next(config_.max_frame_bytes, fh, payload, hs);
        if (next == FrameReader::Next::Invalid) {
            protocolError(conn, hs);
            return;
        }
        if (next != FrameReader::Next::Frame) {
            // Every buffered frame is parsed; wait for more bytes.
            const net::IoResult r = in.fill(conn.fd);
            if (r == net::IoResult::Ok)
                continue;
            if (in.empty()) {
                // A timeout between frames is an idle (not slow) client,
                // and the reader's periodic stopping() check.
                if (r == net::IoResult::Timeout && !listener_.stopping())
                    continue;
                return; // peer closed (or stop()'s SHUT_RD), or hard error
            }
            protocolError(conn, Status::invalidInput(
                                    next == FrameReader::Next::NeedHeader
                                        ? "truncated frame header"
                                        : "truncated frame payload"));
            return;
        }
        if (GMX_INJECT_FAULT(engine::faults::Point::FrameTooLarge)) {
            protocolError(conn, Status::invalidInput(
                                    "frame payload exceeds cap (injected)"));
            return;
        }
        const auto received = std::chrono::steady_clock::now();
        metrics_.frames_in.fetch_add(1, std::memory_order_relaxed);
        metrics_.bytes_in.fetch_add(kHeaderBytes + payload.size(),
                                    std::memory_order_relaxed);
        conn.last_progress_us.store(steadyMicros(),
                                    std::memory_order_relaxed);

        switch (fh.type) {
          case FrameType::AlignRequest: {
            AlignRequestFrame req;
            if (Status s = decodeAlignRequest(payload.data(),
                                              payload.size(), req);
                !s.ok()) {
                protocolError(conn, s);
                return;
            }
            handleRequest(conn, std::move(req), received);
            break;
          }
          case FrameType::Bye: {
            if (Status s = decodeEmpty(FrameType::Bye, payload.size());
                !s.ok()) {
                protocolError(conn, s);
                return;
            }
            Outgoing o;
            o.bye = true;
            enqueue(conn, std::move(o));
            return; // drain + ByeAck, then the connection closes
          }
          default:
            protocolError(
                conn, Status::invalidInput(
                          std::string("unexpected ") +
                          frameTypeName(fh.type) + " frame from client"));
            return;
        }
    }
}

bool
AlignServer::handshake(Conn &conn)
{
    // Synchronous handshake: the first frame must be a Hello, answered
    // with a HelloAck, before the writer exists — so direct sends here
    // cannot interleave with response frames.
    char hdr[kHeaderBytes];
    if (net::recvExact(conn.fd, hdr, kHeaderBytes) != net::IoResult::Ok) {
        metrics_.accept_failures.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    FrameHeader fh;
    Status hs = decodeHeader(hdr, kHeaderBytes, config_.max_frame_bytes, fh);
    if (hs.ok() && fh.type != FrameType::Hello)
        hs = Status::invalidInput("expected hello as the first frame");
    std::string payload;
    HelloFrame hello;
    if (hs.ok()) {
        payload.resize(fh.payload_len);
        if (fh.payload_len > 0 &&
            net::recvExact(conn.fd, payload.data(), payload.size()) !=
                net::IoResult::Ok)
            hs = Status::invalidInput("truncated hello frame");
    }
    if (hs.ok())
        hs = decodeHello(payload.data(), payload.size(), hello);
    if (!hs.ok()) {
        metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        const std::string err =
            encodeError({hs.code(), capMessage(hs.message())});
        (void)net::sendAll(conn.fd, err.data(), err.size());
        return false;
    }
    metrics_.frames_in.fetch_add(1, std::memory_order_relaxed);
    metrics_.bytes_in.fetch_add(kHeaderBytes + payload.size(),
                                std::memory_order_relaxed);
    conn.client_id =
        hello.client_id.empty() ? "anonymous" : hello.client_id;
    conn.priority = hello.priority;
    // Echo the intersection of offered and supported feature bits; the
    // client uses only echoed bits, so a v1 peer (offers 0) sees 0.
    conn.features = hello.features & kSupportedFeatures;
    return sendFrames(conn,
                      encodeHelloAck({kVersion, conn.features,
                                      config_.max_frame_bytes}),
                      1);
}

void
AlignServer::handleConnection(int fd)
{
    Conn conn;
    conn.fd = fd;
    conn.last_progress_us.store(steadyMicros(), std::memory_order_relaxed);
    bool stopping = false;
    {
        // The core refuses connections it picks up after stop() began;
        // this re-check closes the window between that pick-up and the
        // registration. drain()'s SHUT_RD sweep takes conns_mu_ after
        // stop() set the flag, so every connection is either swept or
        // refused here.
        std::lock_guard<std::mutex> lk(conns_mu_);
        stopping = listener_.stopping();
        if (!stopping)
            open_conns_.emplace(fd, &conn);
    }
    if (stopping) {
        refuseConnection(fd, StatusCode::Unavailable, "server is stopping");
        return;
    }

    if (handshake(conn)) {
        std::thread writer([this, &conn] { writerLoop(conn); });
        readerLoop(conn);
        {
            std::lock_guard<std::mutex> lk(conn.mu);
            conn.closing = true;
        }
        conn.data_cv.notify_all();
        writer.join();
    }

    // Unregister before the core closes the fd, so the sweep and the
    // watchdog can never touch a recycled fd number.
    std::lock_guard<std::mutex> lk(conns_mu_);
    open_conns_.erase(fd);
}

void
AlignServer::watchdogLoop()
{
    const u64 limit_us = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            config_.io_timeout)
            .count() *
        config_.watchdog_multiple);
    // Scan at a fraction of the kill threshold so a stuck connection is
    // caught within ~1.25x the configured limit, worst case.
    const auto tick = std::max<std::chrono::milliseconds>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            config_.io_timeout * config_.watchdog_multiple / 4),
        std::chrono::milliseconds{10});
    std::unique_lock<std::mutex> lk(watchdog_mu_);
    for (;;) {
        watchdog_cv_.wait_for(lk, tick, [this] {
            return listener_.stopping();
        });
        if (listener_.stopping())
            return;
        const u64 now_us = steadyMicros();
        std::lock_guard<std::mutex> ck(conns_mu_);
        for (const auto &[fd, conn] : open_conns_) {
            if (conn->inflight.load(std::memory_order_relaxed) == 0)
                continue; // idle, not stuck
            const u64 last =
                conn->last_progress_us.load(std::memory_order_relaxed);
            if (now_us - last <= limit_us)
                continue;
            if (conn->watchdog_killed.exchange(true,
                                               std::memory_order_acq_rel))
                continue; // already shot once
            // Force-close both directions: the reader sees EOF, the
            // writer's next send fails, and the drain path still settles
            // every routed ticket — counted, never silently hung.
            metrics_.watchdog_kills.fetch_add(1,
                                              std::memory_order_relaxed);
            conn->dead.store(true, std::memory_order_relaxed);
            (void)::shutdown(fd, SHUT_RDWR);
        }
    }
}

} // namespace gmx::serve

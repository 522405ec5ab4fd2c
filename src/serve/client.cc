#include "serve/client.hh"

#include <algorithm>
#include <thread>

#include "common/net.hh"
#include "engine/faults.hh"

namespace gmx::serve {

namespace {

Status
ioStatus(net::IoResult r, const char *what)
{
    switch (r) {
      case net::IoResult::Ok:
        return Status();
      case net::IoResult::Timeout:
        return Status::deadlineExceeded(std::string(what) + " timed out");
      case net::IoResult::Closed:
        return Status::internal(std::string("connection closed during ") +
                                what);
      case net::IoResult::Error:
        break;
    }
    return Status::internal(std::string("socket error during ") + what);
}

/** Response codes that are safe and sensible to retry. */
bool
retryableCode(StatusCode c)
{
    return c == StatusCode::Overloaded || c == StatusCode::Unavailable;
}

/** splitmix64 step: cheap deterministic jitter source. */
u64
nextRand(u64 &state)
{
    u64 z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Result<align::AlignResult>
toOutcome(const AlignResponseFrame &resp)
{
    if (resp.code != StatusCode::Ok)
        return Status(resp.code, resp.message);
    align::AlignResult r;
    r.distance = resp.distance;
    if (resp.has_cigar) {
        // The decoder bounds the bytes; parse defensively anyway so a
        // hostile server cannot make the client unwind.
        for (const char c : resp.cigar)
            if (c != 'M' && c != 'X' && c != 'I' && c != 'D')
                return Status::internal(
                    "response cigar contains invalid op");
        r.cigar = align::Cigar::fromString(resp.cigar);
        r.has_cigar = true;
    }
    return r;
}

AlignClient::AlignClient(ClientConfig config) : config_(std::move(config))
{
    if (config_.window == 0)
        config_.window = 1;
}

AlignClient::~AlignClient()
{
    close();
}

void
AlignClient::close()
{
    net::closeFd(fd_);
    in_.clear();
    max_frame_bytes_ = 0;
    server_features_ = 0;
    requests_sent_ = 0;
}

Status
AlignClient::connect()
{
    if (fd_ >= 0)
        return Status::internal("client already connected");
    fd_ = config_.unix_path.empty()
              ? net::connectTcp(config_.host, config_.port,
                                config_.io_timeout)
              : net::connectUnix(config_.unix_path, config_.io_timeout);
    if (fd_ < 0)
        return Status::internal("connect failed");

    HelloFrame hello;
    hello.priority = config_.priority;
    hello.client_id = config_.client_id;
    hello.features = kSupportedFeatures; // offer; server echoes the ∩
    if (Status s = sendEncoded(encodeHello(hello)); !s.ok()) {
        close();
        return s;
    }
    FrameHeader fh;
    std::string_view payload;
    if (Status s = readFrame(fh, payload); !s.ok()) {
        close();
        return s;
    }
    if (fh.type == FrameType::Error) {
        // The server refused us (connection cap, bad hello): surface
        // its typed code.
        ErrorFrame err;
        Status s = decodeError(payload.data(), payload.size(), err);
        close();
        return s.ok() ? Status(err.code, err.message) : s;
    }
    if (fh.type != FrameType::HelloAck) {
        close();
        return Status::internal("expected hello_ack from server");
    }
    HelloAckFrame ack;
    if (Status s = decodeHelloAck(payload.data(), payload.size(), ack);
        !s.ok()) {
        close();
        return s;
    }
    max_frame_bytes_ = ack.max_frame_bytes;
    server_features_ = ack.features & kSupportedFeatures;
    return Status();
}

Status
AlignClient::sendEncoded(const std::string &encoded)
{
    if (fd_ < 0)
        return Status::internal("client not connected");
    return ioStatus(net::sendAll(fd_, encoded.data(), encoded.size()),
                    "send");
}

Status
AlignClient::readFrame(FrameHeader &header, std::string_view &payload)
{
    if (fd_ < 0)
        return Status::internal("client not connected");
    const u32 cap =
        max_frame_bytes_ > 0 ? max_frame_bytes_ : kDefaultMaxFrameBytes;
    for (;;) {
        Status error;
        const FrameReader::Next next = in_.next(cap, header, payload, error);
        if (next == FrameReader::Next::Frame)
            return Status();
        if (next == FrameReader::Next::Invalid)
            return error;
        if (Status s = ioStatus(in_.fill(fd_),
                                next == FrameReader::Next::NeedHeader
                                    ? "frame header read"
                                    : "frame payload read");
            !s.ok())
            return s;
    }
}

Status
AlignClient::sendRequest(const AlignRequestFrame &req)
{
    // Deterministic mid-batch cut (tests): kill the connection at this
    // frame boundary instead of sending.
    if (config_.chaos_drop && config_.chaos_drop(requests_sent_)) {
        close();
        return Status::internal("connection dropped at frame boundary");
    }
    // RetryStorm: a chaos plan severs connections mid-stream so the
    // retry path (reconnect + resubmit unresolved slots) gets exercised
    // under fire.
    if (GMX_INJECT_FAULT(engine::faults::Point::RetryStorm)) {
        close();
        return Status::internal("connection dropped (retry storm)");
    }
    Status s = sendEncoded(encodeAlignRequest(req));
    if (s.ok())
        ++requests_sent_;
    return s;
}

Status
AlignClient::readResponse(AlignResponseFrame &out)
{
    FrameHeader fh;
    std::string_view payload;
    if (Status s = readFrame(fh, payload); !s.ok()) {
        close();
        return s;
    }
    if (fh.type == FrameType::Error) {
        ErrorFrame err;
        Status s = decodeError(payload.data(), payload.size(), err);
        close();
        return s.ok() ? Status(err.code, err.message) : s;
    }
    if (fh.type != FrameType::AlignResponse) {
        close();
        return Status::internal(std::string("unexpected ") +
                                frameTypeName(fh.type) +
                                " frame from server");
    }
    if (Status s = decodeAlignResponse(payload.data(), payload.size(), out);
        !s.ok()) {
        close();
        return s;
    }
    if (out.cache_hit)
        ++cache_hits_;
    return Status();
}

std::vector<Result<align::AlignResult>>
AlignClient::alignBatch(const std::vector<seq::SequencePair> &pairs,
                        bool want_cigar, u32 max_edits)
{
    BatchOptions opts;
    opts.want_cigar = want_cigar;
    opts.max_edits = max_edits;
    return alignBatch(pairs, opts); // max_attempts 1: no retry, no dial
}

std::vector<Result<align::AlignResult>>
AlignClient::alignBatch(const std::vector<seq::SequencePair> &pairs,
                        const BatchOptions &opts)
{
    attempts_.clear();
    std::vector<Result<align::AlignResult>> results(
        pairs.size(), Result<align::AlignResult>(
                          Status::internal("no response received")));
    // A slot is resolved once it holds a final verdict: Ok, or any
    // failure that is not worth retrying (idempotent-safe set only).
    std::vector<u8> resolved(pairs.size(), 0);
    size_t unresolved = pairs.size();

    const unsigned max_attempts = std::max(1u, opts.retry.max_attempts);
    u64 rng = opts.retry.seed;
    std::chrono::milliseconds backoff = opts.retry.initial_backoff;

    for (unsigned attempt = 1;
         attempt <= max_attempts && unresolved > 0; ++attempt) {
        AttemptLog log;
        log.attempt = attempt;
        log.unresolved = unresolved;

        if (attempt > 1) {
            // Full jitter: uniform in [0, backoff] decorrelates a herd
            // of clients retrying against the same struggling server.
            const u64 span = static_cast<u64>(backoff.count()) + 1;
            log.backoff =
                std::chrono::milliseconds(nextRand(rng) % span);
            if (log.backoff.count() > 0)
                std::this_thread::sleep_for(log.backoff);
            backoff = std::min(backoff * 2, opts.retry.max_backoff);
            if (!connected()) {
                log.reconnected = true;
                if (Status s = connect(); !s.ok()) {
                    log.failure = s;
                    attempts_.push_back(log);
                    continue; // next attempt re-dials after backoff
                }
            }
        }

        // This attempt's worklist: every still-unresolved slot. Request
        // ids are the ORIGINAL slot indices, so responses map straight
        // back regardless of which attempt carried them.
        std::vector<size_t> work;
        work.reserve(unresolved);
        for (size_t i = 0; i < pairs.size(); ++i)
            if (!resolved[i])
                work.push_back(i);

        std::vector<u8> pending(pairs.size(), 0);
        size_t sent = 0, received = 0;
        Status fail;
        // Bounded send window: never more than `window` unanswered
        // requests, so the server's per-connection response bound and
        // the two socket buffers can't deadlock a large batch.
        while (received < work.size() && fail.ok()) {
            if (sent < work.size() &&
                sent - received < config_.window) {
                const size_t slot = work[sent];
                AlignRequestFrame req;
                req.id = slot;
                req.max_edits = opts.max_edits;
                req.want_cigar = opts.want_cigar;
                if (opts.deadline.count() > 0 &&
                    (server_features_ & kFeatureDeadline) != 0)
                    req.deadline_us =
                        static_cast<u64>(opts.deadline.count());
                req.pattern = pairs[slot].pattern.str();
                req.text = pairs[slot].text.str();
                if (Status s = sendRequest(req); !s.ok()) {
                    fail = s;
                    break;
                }
                pending[slot] = 1;
                ++sent;
                continue;
            }
            AlignResponseFrame resp;
            if (Status s = readResponse(resp); !s.ok()) {
                fail = s;
                break;
            }
            if (resp.id >= pairs.size() || !pending[resp.id]) {
                fail = Status::internal("response id out of range");
                close();
                break;
            }
            pending[resp.id] = 0;
            ++received;
            results[resp.id] = toOutcome(resp);
            if (retryableCode(resp.code)) {
                ++log.retryable; // keep the slot open for a later try
            } else {
                resolved[resp.id] = 1;
                --unresolved;
                ++log.resolved;
            }
        }

        if (!fail.ok()) {
            log.failure = fail;
            // Slots the connection failure left unanswered (sent and
            // pending, or never sent) carry the transport status until
            // a later attempt resolves them.
            for (size_t k = 0; k < work.size(); ++k) {
                const size_t slot = work[k];
                if (!resolved[slot] && (k >= sent || pending[slot]))
                    results[slot] = Result<align::AlignResult>(fail);
            }
            // A malformed-frame verdict from the server is not
            // transient; stop rather than replay the same bytes.
            if (fail.code() == StatusCode::InvalidInput) {
                attempts_.push_back(log);
                break;
            }
        }
        attempts_.push_back(log);
    }
    return results;
}

Status
AlignClient::bye()
{
    if (fd_ < 0)
        return Status::internal("client not connected");
    if (Status s = sendEncoded(encodeBye()); !s.ok()) {
        close();
        return s;
    }
    // Drain anything still in flight until the ByeAck arrives.
    for (;;) {
        FrameHeader fh;
        std::string_view payload;
        if (Status s = readFrame(fh, payload); !s.ok()) {
            close();
            return s;
        }
        if (fh.type == FrameType::ByeAck) {
            Status s = decodeEmpty(FrameType::ByeAck, payload.size());
            close();
            return s;
        }
        if (fh.type != FrameType::AlignResponse) {
            close();
            return Status::internal("unexpected frame while closing");
        }
    }
}

} // namespace gmx::serve

/**
 * @file
 * AlignClient: the library (and CLI backing) side of the serve wire
 * protocol.
 *
 * A thin blocking client over one connection: connect() dials TCP or a
 * unix socket and runs the Hello/HelloAck handshake; sendRequest /
 * readResponse expose raw streaming; alignBatch() is the convenience
 * most callers want — it streams a whole batch with a bounded send
 * window (interleaving reads so the server's per-connection response
 * bound can never deadlock a large batch) and returns engine-shaped
 * Result<AlignResult> values in input order, so remote callers branch
 * on exactly the Status codes local Engine::submit callers do.
 *
 * Resilience: the BatchOptions overload of alignBatch adds bounded
 * retries with exponentially-growing, fully-jittered backoff. Retries
 * are idempotent-safe by construction: only transport failures and
 * explicitly-transient response codes (Overloaded — shed or quota — and
 * Unavailable) are retried; a malformed-input verdict is final. A batch
 * completes partially: each attempt resubmits ONLY still-unresolved
 * slots (reconnecting first if the connection died), so one bad pair or
 * one dropped connection no longer fails the whole window. When the
 * server negotiated kFeatureDeadline, BatchOptions::deadline rides each
 * request as a microsecond budget.
 */

#ifndef GMX_SERVE_CLIENT_HH
#define GMX_SERVE_CLIENT_HH

#include <chrono>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "align/types.hh"
#include "common/status.hh"
#include "sequence/sequence.hh"
#include "serve/protocol.hh"

namespace gmx::serve {

/** AlignClient construction parameters. */
struct ClientConfig
{
    /** TCP target (used when unix_path is empty). */
    std::string host = "127.0.0.1";
    u16 port = 0;

    /** Connect to this unix-domain socket path instead of TCP. */
    std::string unix_path{};

    /** Client id presented in the Hello (quota/metrics key). */
    std::string client_id = "client";

    /** Priority class presented in the Hello. */
    Priority priority = Priority::Normal;

    /** Socket read/write deadline. */
    std::chrono::milliseconds io_timeout{5000};

    /** Requests in flight per connection before alignBatch reads. */
    size_t window = 32;

    /**
     * Test hook: called before each AlignRequest send with the count of
     * requests already sent on this connection; returning true drops
     * the connection at that frame boundary (a deterministic mid-batch
     * cut for retry-idempotency tests). Unset in production.
     */
    std::function<bool(u64)> chaos_drop{};
};

/** Retry behaviour for the BatchOptions alignBatch overload. */
struct RetryPolicy
{
    /** Total attempts per pair, including the first (1 = no retry). */
    unsigned max_attempts = 1;

    /** Backoff before the 2nd attempt; doubles per attempt after. */
    std::chrono::milliseconds initial_backoff{10};

    /** Growth cap on the doubling backoff. */
    std::chrono::milliseconds max_backoff{1000};

    /** Seed for the full-jitter draw (deterministic in tests). */
    u64 seed = 0x9e3779b97f4a7c15ull;
};

/** Per-batch knobs for the resilient alignBatch overload. */
struct BatchOptions
{
    bool want_cigar = true;
    u32 max_edits = 0;

    /**
     * Per-request deadline budget (0 = none). Sent on the wire only
     * when the server negotiated kFeatureDeadline; otherwise ignored.
     */
    std::chrono::microseconds deadline{0};

    RetryPolicy retry{};
};

/** What one alignBatch attempt did (CLI/diagnostic reporting). */
struct AttemptLog
{
    unsigned attempt = 0;    //!< 1-based attempt number
    size_t unresolved = 0;   //!< slots still open going into the attempt
    size_t resolved = 0;     //!< slots settled with a final verdict
    size_t retryable = 0;    //!< slots that failed with a transient code
    bool reconnected = false; //!< the attempt had to re-dial first
    std::chrono::milliseconds backoff{0}; //!< jittered sleep beforehand
    Status failure{}; //!< transport/connect failure that ended the attempt
};

/**
 * One blocking connection to an AlignServer. Not thread-safe; use one
 * client per thread. close() (or destruction) drops the connection;
 * bye() closes politely, draining the server first.
 */
class AlignClient
{
  public:
    explicit AlignClient(ClientConfig config = {});
    ~AlignClient();

    AlignClient(const AlignClient &) = delete;
    AlignClient &operator=(const AlignClient &) = delete;

    /** Dial and handshake. Typed error on refusal or protocol noise. */
    Status connect();

    bool connected() const { return fd_ >= 0; }

    /** Frame cap negotiated in the HelloAck; 0 before connect(). */
    u32 maxFrameBytes() const { return max_frame_bytes_; }

    /** Feature bits the server echoed in the HelloAck (offer ∩ theirs). */
    u8 serverFeatures() const { return server_features_; }

    /** Stream one request; does not wait for the response. */
    Status sendRequest(const AlignRequestFrame &req);

    /**
     * Block for the next response frame. A server Error frame (a
     * connection-level failure) is surfaced as its typed Status and the
     * connection is closed.
     */
    Status readResponse(AlignResponseFrame &out);

    /**
     * Align every pair over the wire, results in input order. Failures
     * stay in their slot as typed Statuses (engine convention); a
     * connection-level failure fails every not-yet-answered slot.
     */
    std::vector<Result<align::AlignResult>>
    alignBatch(const std::vector<seq::SequencePair> &pairs,
               bool want_cigar = true, u32 max_edits = 0);

    /**
     * Resilient batch: like the overload above, plus deadline budgets
     * and bounded idempotent-safe retries (see the file comment). Slots
     * that exhaust their attempts keep their last typed failure.
     */
    std::vector<Result<align::AlignResult>>
    alignBatch(const std::vector<seq::SequencePair> &pairs,
               const BatchOptions &opts);

    /** Per-attempt records of the most recent BatchOptions alignBatch. */
    const std::vector<AttemptLog> &attempts() const { return attempts_; }

    /** Polite close: Bye, wait for ByeAck, then drop the connection. */
    Status bye();

    /** Drop the connection immediately. Idempotent. */
    void close();

    /** Responses so far that the server marked as cache hits. */
    u64 cacheHits() const { return cache_hits_; }

    const ClientConfig &config() const { return config_; }

  private:
    /** Read one whole frame; @p payload stays valid until the next read. */
    Status readFrame(FrameHeader &header, std::string_view &payload);
    Status sendEncoded(const std::string &encoded);

    ClientConfig config_;
    int fd_ = -1;
    FrameReader in_; //!< frames received but not yet read (see protocol.hh)
    u32 max_frame_bytes_ = 0;
    u8 server_features_ = 0;
    u64 cache_hits_ = 0;
    u64 requests_sent_ = 0; //!< on this connection (chaos_drop's input)
    std::vector<AttemptLog> attempts_;
};

/**
 * Convert one response into the engine's Result shape: Ok responses
 * become AlignResult (wire distance -1 back to kNoAlignment, cigar
 * parsed); non-Ok responses become their typed Status.
 */
Result<align::AlignResult> toOutcome(const AlignResponseFrame &resp);

} // namespace gmx::serve

#endif // GMX_SERVE_CLIENT_HH

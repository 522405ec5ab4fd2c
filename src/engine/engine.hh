/**
 * @file
 * Alignment engine: persistent submission front-end whose workers pop
 * a bounded request queue.
 *
 * The pipeline a request flows through:
 *
 *   submit() -> validation -> bounded MPMC queue -> worker pop (+fusion)
 *            -> admission (deadline, memory budget)
 *            -> cascade or custom aligner -> std::future<Result<AlignResult>>
 *
 * Error idiom: futures are ALWAYS fulfilled with a value — a
 * gmx::Result<AlignResult> carrying either the alignment or a typed
 * Status — never with an exception. Exceptions exist only inside the
 * pipeline (StatusError unwinds kernel loops on cancellation) and are
 * converted to Status exactly once, at the request boundary. Callers
 * branch on Status codes instead of catching a zoo of exception types:
 *
 *   InvalidInput      — rejected by validation before any work
 *   Overloaded        — refused (Reject) or shed (ShedOldest) under load
 *   EngineStopped     — submitted after stop()
 *   DeadlineExceeded  — per-request deadline passed (before or mid-kernel)
 *   Cancelled         — caller's CancelSource fired
 *   ResourceExhausted — memory-budget admission failed (and no downgrade)
 *   Internal          — unexpected aligner failure
 *
 * The bounded queue is the scheduler. It is where backpressure lives: a
 * full queue either blocks the submitter, rejects the new request, or
 * sheds the oldest queued one — the three policies a service front-end
 * needs when traffic exceeds alignment capacity. Dispatch is FIFO: a
 * free worker pops the head of the queue, so requests start in the
 * order they were accepted. The worker also takes the run of small
 * requests queued right behind the head as one micro-batch, so
 * short-read-sized requests amortize one wake-up per batch instead of
 * paying per-pair scheduling cost, mirroring how the paper's
 * short-sequence workloads keep each core's GMX unit saturated (§7.2).
 */

#ifndef GMX_ENGINE_ENGINE_HH
#define GMX_ENGINE_ENGINE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "align/batch.hh"
#include "align/types.hh"
#include "common/cancel.hh"
#include "common/status.hh"
#include "engine/budget.hh"
#include "engine/cascade.hh"
#include "engine/metrics.hh"
#include "engine/trace.hh"
#include "sequence/sequence.hh"

namespace gmx::engine {

/** What submit() does when the request queue is full. */
enum class Backpressure {
    Block,     //!< wait until the queue has room (lossless, applies latency)
    Reject,    //!< fail the new request with Overloaded (fail fast)
    ShedOldest //!< drop the oldest queued request (freshest-first service)
};

/**
 * When the engine lane-packs fused distance-only requests through the
 * 4-lane SIMD filter batcher (kernel/simd bpmDistanceBatchLanes).
 * Results are bit-identical either way — packing only changes
 * throughput — and GMX_FORCE_SCALAR=1 disables every mode.
 */
enum class FilterBatching {
    Auto, //!< kernel::simdDispatchEnabled(): pack on real AVX2 hosts only
    On,   //!< pack even on the portable vector backend (tests, benches)
    Off,  //!< always run the per-request scalar cascade
};

/** Engine construction parameters. */
struct EngineConfig
{
    /**
     * Worker threads, each popping the queue; 0 = one per hardware
     * thread (never zero).
     */
    unsigned workers = 0;

    /** Bounded request-queue capacity. */
    size_t queue_capacity = 1024;

    /** Policy when the queue is full. */
    Backpressure backpressure = Backpressure::Block;

    /** Max small requests one worker pickup fuses (1 disables fusing). */
    size_t microbatch_max = 8;

    /** Pairs with pattern+text bases below this count as "small". */
    size_t microbatch_bases = 2048;

    /** Lane-packing policy for fused distance-only requests. */
    FilterBatching filter_batching = FilterBatching::Auto;

    /** Routing configuration for cascade-dispatched requests. */
    CascadeConfig cascade{};

    /** Input validation applied to every submitted pair. */
    align::InputLimits limits{};

    /**
     * Cap on the sum of estimated footprints of in-flight requests
     * (0 = unlimited). Requests that do not fit are downgraded to a
     * memory-frugal traceback or failed with ResourceExhausted.
     */
    size_t memory_budget_bytes = 0;

    /**
     * Under budget pressure, divert cascade traceback requests to
     * Hirschberg (exact, O(min(n,m)) memory) instead of failing them.
     */
    bool downgrade_under_pressure = true;

    /**
     * Span-ring capacity of the per-request trace recorder (0 disables
     * tracing). Each traced request records ~5 spans, so the default
     * keeps the last few hundred requests inspectable.
     */
    size_t trace_capacity = 2048;

    /**
     * Trace every Nth request (deterministic: request ids are monotonic
     * and a request is traced iff id % N == 0). 1 traces everything;
     * raise it on hot services to bound tracing cost. 0 disables.
     */
    u64 trace_sample_every = 1;

    /**
     * Requests whose end-to-end latency meets this threshold emit one
     * warn-level log line (id, queue-wait/service split, tier, outcome)
     * via common/logging. 0 disables the slow-request log.
     */
    std::chrono::nanoseconds slow_request_threshold{0};
};

/** Per-request options for Engine::submit. */
struct SubmitOptions
{
    /** Ask for a full traceback (tier 1 then only pre-filters). */
    bool want_cigar = true;

    /**
     * Per-request deadline, measured from submit() (0 = none). On expiry
     * the request fails with DeadlineExceeded — before dispatch if it is
     * still queued, or mid-kernel via the cooperative cancel gate.
     */
    std::chrono::nanoseconds timeout{0};

    /** Cooperative cancellation; combine with timeout freely. */
    CancelToken cancel{};

    /**
     * Caller-declared footprint for the memory budget (0 = the engine
     * estimates from sequence lengths; custom aligners estimate as 0,
     * i.e. exempt, unless declared here).
     */
    size_t estimated_bytes = 0;

    /** Caller-chosen aligner; empty routes through the cascade. */
    align::PairAligner aligner{};
};

/**
 * Persistent alignment engine. Safe for concurrent submit() from any
 * number of threads. Destruction is graceful: every accepted request's
 * future is fulfilled before the workers join.
 */
class Engine
{
  public:
    using AlignOutcome = Result<align::AlignResult>;

    explicit Engine(EngineConfig config = {});
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Submit one pair. The future is always fulfilled with a Result —
     * a value or a typed Status, never an exception. Rejections
     * (validation, stopped, Reject-policy overload) return an
     * already-ready future without touching the queue.
     */
    std::future<AlignOutcome> submit(seq::SequencePair pair,
                                     SubmitOptions options = {});

    /** Convenience: cascade routing with just the traceback choice. */
    std::future<AlignOutcome> submit(seq::SequencePair pair,
                                     bool want_cigar);

    /** Convenience: caller-chosen aligner (bypasses the cascade). */
    std::future<AlignOutcome> submit(seq::SequencePair pair,
                                     align::PairAligner aligner);

    /**
     * Convenience: submit every pair and wait; Results in input order.
     * Per-pair failures stay in their slot; nothing is thrown.
     */
    std::vector<AlignOutcome>
    alignAll(const std::vector<seq::SequencePair> &pairs,
             bool want_cigar = true);

    /** Block until the queue is empty and no request is in flight. */
    void drain();

    /**
     * Graceful stop: refuse new submissions, finish everything accepted,
     * join the workers. Idempotent; the destructor calls it.
     */
    void stop();

    /** Point-in-time metrics (queue, workers, tiers, budget, latency). */
    MetricsSnapshot metrics() const;

    /** The per-request span recorder (dump with trace().toJson()). */
    const TraceRecorder &trace() const { return trace_; }

    /**
     * Rolling slow-request exemplars, keyed by answering tier. Populated
     * whenever a request meets config().slow_request_threshold (the same
     * condition as the warn log); served by MetricsServer under /trace.
     */
    const SlowRequestStore &slowRequests() const { return slow_; }

    const EngineConfig &config() const { return config_; }
    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    using Clock = std::chrono::steady_clock;

    /** One queued alignment request. */
    struct Request
    {
        seq::SequencePair pair;
        align::PairAligner aligner; //!< empty => cascade routing
        bool want_cigar = true;
        /** Routing decision made at submit: Long requests run the
         *  streamed tier and are exempt from short-class machinery
         *  (micro-batch lane packing, Hirschberg downgrade). */
        align::LengthClass klass = align::LengthClass::Short;
        u64 id = 0;       //!< monotonic request id (tracing & slow log)
        size_t bases = 0; //!< pattern + text length, for micro-batching
        size_t estimated_bytes = 0; //!< footprint for the budget gate
        CancelToken cancel;         //!< user token + deadline, if any
        Clock::time_point enqueued;
        Clock::time_point dispatched; //!< worker pickup (service start)
        std::promise<AlignOutcome> promise;
    };

    /**
     * Everything runOne learns about one request beyond the outcome:
     * which tier answered (when cascade/downgrade routing ran), the
     * kernel work done, and the per-attempt breakdown for tracing and
     * per-tier work attribution.
     */
    struct Served
    {
        AlignOutcome outcome;
        bool tiered = false; //!< tier/cells/attempts are meaningful
        Tier tier = Tier::Full;
        u64 cells = 0;
        u64 reserved_bytes = 0;
        u64 arena_peak_bytes = 0; //!< worker scratch high-water this request
        i64 admitted_us = 0; //!< trace time of the Admission span
        std::vector<CascadeAttempt> attempts;

        explicit Served(AlignOutcome o) : outcome(std::move(o)) {}
    };

    /**
     * What the lane packer already did for one fused request before its
     * runOne turn: the filter tier ran inside a packed group, producing
     * either a lane failure (deadline/cancel while siblings ran) or the
     * scalar-identical filter verdict plus the lane's own attempt record
     * and work counts to seed the cascade continuation with.
     */
    struct FilterPrefill
    {
        bool ran = false; //!< filter tier already ran in a packed group
        Status status{};  //!< lane failure (Cancelled/DeadlineExceeded)
        align::AlignResult filtered;
        CascadeAttempt attempt;
        KernelCounts counts;
        u64 reserved_share = 0; //!< this lane's share of the group grant
    };

    std::future<AlignOutcome> enqueue(Request req);
    /** One worker: pop the head plus its small-request run, serve it,
     *  repeat; returns once stopping and the queue is drained. */
    void workerLoop();
    void runRequests(std::vector<Request> batch);
    /** Admission + kernel for one request; never throws. @p pre carries
     *  the lane packer's filter-tier result when the request rode in a
     *  packed group (null/un-ran otherwise). */
    Served runOne(Request &req, const FilterPrefill *pre);
    /** Per-kernel max_len enforcement over every kernel @p klass's route
     *  can visit; Ok or a typed InvalidInput naming the kernel. */
    Status checkRouteLengths(align::LengthClass klass, size_t n, size_t m,
                             bool want_cigar) const;
    /** Whether this engine lane-packs right now (config + dispatch). */
    bool filterBatchingActive() const;
    /** Whether @p req can ride a packed filter group at all. */
    bool batchFilterEligible(const Request &req) const;
    /** Pack eligible requests of @p batch into lane groups, run their
     *  filter tiers batched, and record the results into @p pre. */
    void runFilterGroups(std::vector<Request> &batch,
                         std::vector<FilterPrefill> &pre);
    bool isSmall(const Request &req) const
    {
        return req.bases <= config_.microbatch_bases;
    }

    EngineConfig config_;
    EngineMetrics metrics_;
    MemoryBudget budget_;
    TraceRecorder trace_;
    SlowRequestStore slow_;
    std::atomic<u64> next_id_{1};
    std::atomic<u64> batches_executed_{0}; //!< worker pickups served

    // Bounded MPMC request queue and its coordination.
    mutable std::mutex mu_;
    std::condition_variable work_cv_; //!< wakes idle workers
    std::condition_variable queue_not_full_;
    std::condition_variable idle_;
    std::deque<Request> queue_;
    size_t inflight_ = 0; //!< requests popped by workers, not yet finished
    bool stopping_ = false;

    std::vector<std::thread> workers_;
};

} // namespace gmx::engine

#endif // GMX_ENGINE_ENGINE_HH

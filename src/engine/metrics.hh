/**
 * @file
 * Atomic metrics for the alignment engine.
 *
 * The engine is a concurrent pipeline, so every counter here is a plain
 * relaxed atomic: producers and workers bump them wait-free and a snapshot
 * reads them without stopping the pipeline. A snapshot is a plain value
 * struct that can be diffed, printed, or serialized to JSON — the shape a
 * monitoring scraper would consume in a service deployment.
 */

#ifndef GMX_ENGINE_METRICS_HH
#define GMX_ENGINE_METRICS_HH

#include <array>
#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "common/types.hh"

namespace gmx::engine {

/**
 * Cascade tiers, cheapest first. Tier indices are stable: they are used
 * as array offsets in the metrics and as labels in the JSON snapshot.
 * Downgraded is not a routing tier: it marks requests the memory-budget
 * admission gate diverted from Full(GMX) traceback to Hirschberg.
 */
enum class Tier : unsigned {
    Filter = 0,     //!< Bitap edit-distance filter answered the request
    Banded = 1,     //!< Banded(GMX) inside the band answered it
    Full = 2,       //!< escalated to Full(GMX)
    Downgraded = 3, //!< budget pressure: Hirschberg fallback answered it
    Streamed = 4,   //!< long length class: streaming Windowed(GMX) tier
};

inline constexpr unsigned kTierCount = 5;

/** Human-readable tier name ("filter" / "banded" / ... / "streamed"). */
const char *tierName(Tier t);

/**
 * Upper edge of log2-microsecond latency bucket @p b, in microseconds
 * (bucket 0 is [0, 1us), bucket b>0 is [2^(b-1), 2^b) us). The ONE
 * definition of the bucket-edge function: the snapshot's quantile
 * approximation and the OpenMetrics exporter's `le` labels both use it,
 * so a reported p99 and the scraped bucket it falls in cannot drift.
 */
inline double
latencyBucketUpperUs(size_t b)
{
    return b == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(b));
}

/**
 * Lock-free latency histogram with power-of-two microsecond buckets:
 * bucket b counts samples in [2^(b-1), 2^b) microseconds (bucket 0 is
 * [0, 1us)). 32 buckets cover up to ~35 minutes, far beyond any
 * alignment latency this engine can produce.
 *
 * record() is robust to garbage durations: a stepped clock or a
 * fault-injected stall can hand it a negative, NaN, or infinite value,
 * and feeding any of those to std::log2 (or casting the result) is
 * undefined. Negative and NaN samples clamp to bucket 0, oversized and
 * +inf samples to the last bucket; the running sum is clamped the same
 * way so mean latency stays finite.
 */
class LatencyHistogram
{
  public:
    static constexpr size_t kBuckets = 32;

    void record(double seconds);

    /** Per-bucket counts (relaxed reads; consistent enough for reporting). */
    std::vector<u64> buckets() const;

    /** Sum of recorded (clamped) samples in microseconds. */
    double sumUs() const
    {
        return sum_us_.load(std::memory_order_relaxed);
    }

  private:
    std::array<std::atomic<u64>, kBuckets> buckets_{};
    std::atomic<double> sum_us_{0.0};
};

/** Summary of one latency histogram, in microseconds. */
struct LatencySummary
{
    std::vector<u64> buckets; //!< log2-microsecond histogram
    u64 count = 0;
    double sum_us = 0.0;
    double mean_us = 0.0;
    double p50_us = 0.0; //!< bucket-upper-bound approximation
    double p99_us = 0.0;
};

/** Point-in-time copy of every engine counter. Plain values, no atomics. */
struct MetricsSnapshot
{
    // Submission front-end.
    u64 submitted = 0;    //!< requests accepted into the queue
    u64 completed = 0;    //!< requests whose future carried an ok Result
    u64 failed = 0;       //!< requests whose future carried a failed Result
    u64 rejected = 0;     //!< requests refused by the Reject policy
    u64 shed = 0;         //!< queued requests dropped by the ShedOldest policy
    u64 invalid = 0;      //!< requests refused by input validation
    u64 queue_depth = 0;  //!< current queued (not yet dispatched) requests
    u64 queue_peak = 0;   //!< high-water mark of queue_depth
    u64 microbatches = 0; //!< pool tasks that fused >= 2 small requests
    u64 batched_pairs = 0; //!< requests that rode inside a micro-batch

    /**
     * Lane-packed filter-tier groups: how often the engine ran the
     * cascade's filter through the 4-lane SIMD batcher, how many
     * requests rode in those groups, and the occupancy histogram
     * (filter_batch_lanes[l] = groups that ran with l+1 lanes filled —
     * partial tails land in the lower slots).
     */
    u64 filter_batches = 0;
    u64 filter_batched_pairs = 0;
    std::array<u64, 4> filter_batch_lanes{};

    // Robustness: deadline / cancel / memory-budget outcomes.
    u64 deadline_missed = 0;   //!< requests failed with DeadlineExceeded
    u64 cancelled = 0;         //!< requests failed with Cancelled
    u64 downgraded = 0;        //!< budget pressure: Hirschberg fallback
    u64 resource_rejected = 0; //!< failed with ResourceExhausted
    u64 mem_budget_bytes = 0;  //!< configured budget (0 = unlimited)
    u64 mem_reserved_bytes = 0; //!< currently reserved estimates
    u64 mem_reserved_peak = 0;  //!< high-water mark of reserved estimates
    u64 arena_peak_bytes = 0;   //!< max per-worker scratch-arena footprint

    // Engine workers.
    u64 pool_workers = 0;  //!< worker threads popping the queue
    u64 pool_executed = 0; //!< worker pickups (fused batches) served
    /**
     * Always 0: workers pop one shared FIFO queue, so there is nothing
     * to steal. Kept only because perfbench/layers.cc still reads it;
     * it goes when that benchmark drops engine.steals_per_kpair.
     */
    u64 pool_steals = 0;

    // Cascade tiers.
    std::array<u64, kTierCount> tier_hits{}; //!< completions per tier
    std::array<u64, kTierCount> tier_peak_bytes{}; //!< max footprint per tier

    /**
     * Per-tier observability: kernel work accounting and the split
     * latency story. Work (attempts/cells/work_us, hence gcups) is
     * attributed per kernel invocation — a request that tries the band
     * and escalates charges the banded tier for the failed attempt —
     * while the queue-wait/service histograms are request-level and
     * keyed by the tier that answered.
     */
    struct TierStats
    {
        u64 attempts = 0;   //!< kernel invocations routed at this tier
        u64 cells = 0;      //!< DP cells computed by those invocations
        double work_us = 0; //!< wall-clock microseconds spent in them

        /**
         * Phase split of work_us, as attributed by the kernels: setup is
         * mask/grid building and scratch carving, kernel is the DP loop
         * plus traceback.
         */
        double setup_us = 0;
        double kernel_us = 0;

        /**
         * cells / kernel time, in 1e9 cells/s. Computed from kernel_us
         * only, so setup overhead shows up as a setup_us/work_us ratio
         * instead of silently diluting throughput.
         */
        double gcups = 0;

        LatencySummary queue_wait; //!< enqueue -> worker pickup
        LatencySummary service;    //!< worker pickup -> result ready
    };
    std::array<TierStats, kTierCount> tiers{};

    // Latency, request submit -> future fulfilled.
    std::vector<u64> latency_buckets; //!< log2-microsecond histogram
    u64 latency_count = 0;
    double latency_sum_us = 0.0; //!< true running sum, not mean * count
    double latency_mean_us = 0.0;
    double latency_p50_us = 0.0;
    double latency_p99_us = 0.0;

    /**
     * Serialize as a single JSON object (stable key order, no trailing
     * commas) — the engine's monitoring endpoint in library form.
     */
    std::string toJson() const;
};

/**
 * The live counters. One instance per Engine; sharable by reference with
 * the cascade so tier hits land in the same snapshot.
 */
class EngineMetrics
{
  public:
    std::atomic<u64> submitted{0};
    std::atomic<u64> completed{0};
    std::atomic<u64> failed{0};
    std::atomic<u64> rejected{0};
    std::atomic<u64> shed{0};
    std::atomic<u64> invalid{0};
    std::atomic<u64> queue_depth{0};
    std::atomic<u64> queue_peak{0};
    std::atomic<u64> microbatches{0};
    std::atomic<u64> batched_pairs{0};
    std::atomic<u64> filter_batches{0};
    std::atomic<u64> filter_batched_pairs{0};
    std::array<std::atomic<u64>, 4> filter_batch_lanes{};

    /** Count one lane-packed filter group that ran with @p lanes lanes. */
    void recordFilterBatch(size_t lanes)
    {
        filter_batches.fetch_add(1, std::memory_order_relaxed);
        filter_batched_pairs.fetch_add(lanes, std::memory_order_relaxed);
        if (lanes >= 1 && lanes <= filter_batch_lanes.size())
            filter_batch_lanes[lanes - 1].fetch_add(
                1, std::memory_order_relaxed);
    }
    std::atomic<u64> deadline_missed{0};
    std::atomic<u64> cancelled{0};
    std::atomic<u64> downgraded{0};
    std::atomic<u64> resource_rejected{0};
    std::array<std::atomic<u64>, kTierCount> tier_hits{};
    std::array<std::atomic<u64>, kTierCount> tier_peak_bytes{};
    std::array<std::atomic<u64>, kTierCount> tier_attempts{};
    std::array<std::atomic<u64>, kTierCount> tier_cells{};
    std::array<std::atomic<double>, kTierCount> tier_work_us{};
    std::array<std::atomic<double>, kTierCount> tier_setup_us{};
    std::array<std::atomic<double>, kTierCount> tier_kernel_us{};
    std::atomic<u64> arena_peak_bytes{0};
    std::array<LatencyHistogram, kTierCount> queue_wait{};
    std::array<LatencyHistogram, kTierCount> service{};
    LatencyHistogram latency;

    /** Count a completion at @p t with its reserved footprint estimate. */
    void recordTier(Tier t, u64 estimated_bytes = 0)
    {
        const unsigned i = static_cast<unsigned>(t);
        tier_hits[i].fetch_add(1, std::memory_order_relaxed);
        noteMax(tier_peak_bytes[i], estimated_bytes);
    }

    /**
     * Charge one kernel invocation's work to tier @p t, with the
     * setup/kernel phase split the kernel attributed itself.
     */
    void recordAttempt(Tier t, u64 cells, double micros,
                       double setup_us = 0.0, double kernel_us = 0.0)
    {
        const unsigned i = static_cast<unsigned>(t);
        tier_attempts[i].fetch_add(1, std::memory_order_relaxed);
        tier_cells[i].fetch_add(cells, std::memory_order_relaxed);
        tier_work_us[i].fetch_add(micros, std::memory_order_relaxed);
        tier_setup_us[i].fetch_add(setup_us, std::memory_order_relaxed);
        tier_kernel_us[i].fetch_add(kernel_us, std::memory_order_relaxed);
    }

    /** Raise the worker scratch-arena high-water mark to @p bytes. */
    void noteArenaPeak(u64 bytes) { noteMax(arena_peak_bytes, bytes); }

    /** Record the split latency of a request answered by tier @p t. */
    void recordTimings(Tier t, double queue_wait_s, double service_s)
    {
        const unsigned i = static_cast<unsigned>(t);
        queue_wait[i].record(queue_wait_s);
        service[i].record(service_s);
    }

    /** Raise queue_peak to at least @p depth (monotonic CAS loop). */
    void notePeak(u64 depth);

    /**
     * Copy everything into a snapshot. Worker and budget numbers are
     * passed in by the engine, which owns both.
     */
    MetricsSnapshot snapshot(u64 pool_workers, u64 pool_executed,
                             u64 mem_budget_bytes = 0,
                             u64 mem_reserved_bytes = 0,
                             u64 mem_reserved_peak = 0) const;

  private:
    /** Monotonic CAS max. */
    static void noteMax(std::atomic<u64> &slot, u64 value);
};

} // namespace gmx::engine

#endif // GMX_ENGINE_METRICS_HH

/**
 * @file
 * Counters for the alignment-serving front door.
 *
 * Same design as engine/metrics: relaxed atomics bumped wait-free on
 * the hot path, snapshotted into a plain value struct that serializes
 * to JSON (for /vars) and to OpenMetrics families (spliced into the
 * MetricsServer's /metrics exposition via ServerConfig::extra_metrics).
 * Per-client rows live behind a small mutex — client cardinality is
 * bounded by who connects, not by request rate, so the lock is cold.
 */

#ifndef GMX_SERVE_METRICS_HH
#define GMX_SERVE_METRICS_HH

#include <array>
#include <atomic>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "serve/protocol.hh"

namespace gmx::serve {

/** Point-in-time per-shard routing stats (filled by the ShardRouter). */
struct ShardStats
{
    u64 routed = 0;            //!< requests ever routed to this shard
    u64 outstanding = 0;       //!< submitted, future not yet consumed
    u64 outstanding_bytes = 0; //!< pattern+text bytes of those requests
    u8 breaker_state = 0;      //!< BreakerState: 0 closed, 1 open, 2 half
    u64 breaker_opens = 0;     //!< cumulative breaker trips
    u64 breaker_probes = 0;    //!< cumulative HalfOpen probes admitted
    u64 window_samples = 0;    //!< completions in the rolling window
    u64 window_fails = 0;      //!< failures in the rolling window
};

/** Point-in-time per-client stats. */
struct ClientStats
{
    std::string id;
    u64 requests = 0;  //!< align requests received
    u64 throttled = 0; //!< rejected by the quota bucket
    u64 shed = 0;      //!< rejected by priority admission under overload
    u64 completed = 0; //!< responses carrying an Ok result
    u64 failed = 0;    //!< responses carrying a failed Status
};

/** Point-in-time copy of every serve counter. Plain values, no atomics. */
struct ServeSnapshot
{
    // Connection lifecycle.
    u64 connections_accepted = 0;
    u64 connections_refused = 0; //!< over the cap, or queued at stop()
    u64 accept_failures = 0;     //!< vanished between accept and handshake
    u64 protocol_errors = 0;     //!< malformed/oversized/unexpected frames

    // Frame accounting.
    u64 frames_in = 0;
    u64 frames_out = 0;
    u64 bytes_in = 0;
    u64 bytes_out = 0;

    // Request outcomes.
    u64 requests = 0;
    u64 responses_ok = 0;
    u64 responses_failed = 0;
    u64 quota_throttled = 0;
    std::array<u64, kPriorityCount> shed_by_priority{};

    // Serve-level admission gauge (requests submitted, not yet answered).
    u64 pending = 0;
    u64 pending_peak = 0;

    // Dedup/result cache.
    u64 cache_hits = 0;      //!< completed entry reused
    u64 cache_coalesced = 0; //!< joined an in-flight computation
    u64 cache_misses = 0;
    u64 cache_evictions = 0;
    u64 cache_invalidated = 0; //!< failed results dropped from the cache
    u64 cache_drained = 0;     //!< entries dropped by breaker ejection
    u64 cache_entries = 0;     //!< current resident entries (gauge)

    // Deadline-budget accounting (requests carrying a wire deadline).
    u64 deadline_requests = 0;       //!< requests that carried a budget
    u64 deadline_refused = 0;        //!< budget spent before the engine
    u64 deadline_budget_us = 0;      //!< sum of budgets as received
    u64 deadline_queue_spent_us = 0; //!< sum spent in serve-side stages

    // Resilience.
    u64 breaker_opens = 0;    //!< breaker trips across all shards
    u64 breaker_rejected = 0; //!< Unavailable: every shard open
    std::array<u64, kPriorityCount> brownout_shed{};
    u64 brownout_level = 0;      //!< current level (gauge, 0-2)
    u64 queue_wait_ewma_us = 0;  //!< smoothed response queue wait (gauge)
    u64 watchdog_kills = 0;      //!< stuck connections force-closed

    std::vector<ShardStats> shards;
    std::vector<ClientStats> clients; //!< sorted by client id

    /** Cache hit rate in [0,1]: (hits+coalesced) / lookups; 0 when idle. */
    double cacheHitRate() const;

    /** One JSON object (stable key order, no trailing commas). */
    std::string toJson() const;
};

/**
 * Render @p snap as OpenMetrics families prefixed gmx_serve_*. Returns
 * family blocks WITHOUT the `# EOF` trailer so the result can be
 * spliced into the engine exposition (ServerConfig::extra_metrics) or
 * printed standalone by appending the trailer.
 */
std::string renderServeOpenMetrics(const ServeSnapshot &snap);

/** The live counters. One instance per AlignServer. */
class ServeMetrics
{
  public:
    std::atomic<u64> connections_accepted{0};
    std::atomic<u64> connections_refused{0};
    std::atomic<u64> accept_failures{0};
    std::atomic<u64> protocol_errors{0};
    std::atomic<u64> frames_in{0};
    std::atomic<u64> frames_out{0};
    std::atomic<u64> bytes_in{0};
    std::atomic<u64> bytes_out{0};
    std::atomic<u64> requests{0};
    std::atomic<u64> responses_ok{0};
    std::atomic<u64> responses_failed{0};
    std::atomic<u64> quota_throttled{0};
    std::array<std::atomic<u64>, kPriorityCount> shed_by_priority{};
    std::atomic<u64> pending{0};
    std::atomic<u64> pending_peak{0};
    std::atomic<u64> cache_hits{0};
    std::atomic<u64> cache_coalesced{0};
    std::atomic<u64> cache_misses{0};
    std::atomic<u64> cache_evictions{0};
    std::atomic<u64> cache_invalidated{0};
    std::atomic<u64> cache_drained{0};
    std::atomic<u64> cache_entries{0};
    std::atomic<u64> deadline_requests{0};
    std::atomic<u64> deadline_refused{0};
    std::atomic<u64> deadline_budget_us{0};
    std::atomic<u64> deadline_queue_spent_us{0};
    std::atomic<u64> breaker_opens{0};
    std::atomic<u64> breaker_rejected{0};
    std::array<std::atomic<u64>, kPriorityCount> brownout_shed{};
    std::atomic<u64> brownout_level{0};
    std::atomic<u64> queue_wait_ewma_us{0};
    std::atomic<u64> watchdog_kills{0};

    /** Raise pending_peak to at least @p depth (monotonic CAS). */
    void notePendingPeak(u64 depth);

    /** Fold one observed response queue wait into the EWMA gauge. */
    void noteQueueWait(u64 wait_us, double alpha);

    /** Which per-client counter to bump. */
    enum class ClientEvent { Request, Throttled, Shed, Completed, Failed };
    void noteClient(const std::string &id, ClientEvent e);

    /**
     * Copy everything into a snapshot. Shard stats are passed in by the
     * caller (the router owns them).
     */
    ServeSnapshot snapshot(std::vector<ShardStats> shards = {}) const;

  private:
    struct ClientCells
    {
        u64 requests = 0, throttled = 0, shed = 0, completed = 0,
            failed = 0;
    };
    mutable std::mutex clients_mu_;
    std::unordered_map<std::string, ClientCells> clients_;
};

} // namespace gmx::serve

#endif // GMX_SERVE_METRICS_HH

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
 *
 * A counter is declared once, in ServeCounters, which both the live
 * ServeMetrics and the ServeSnapshot instantiate. Each metric's /vars
 * key, OpenMetrics family and type are held once, in the field tables
 * of metrics.cc: scalars (with the per-priority families), per-shard
 * and per-client columns. snapshot(), toJson() and
 * renderServeOpenMetrics() walk them through the writers of
 * engine/exporter.hh.
 */

#ifndef GMX_SERVE_METRICS_HH
#define GMX_SERVE_METRICS_HH

#include <array>
#include <atomic>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/atomic.hh"
#include "common/types.hh"
#include "serve/protocol.hh"

namespace gmx::serve {

/** Point-in-time per-shard routing stats (filled by the ShardRouter). */
struct ShardStats
{
    u64 routed = 0;            //!< requests ever routed to this shard
    u64 outstanding = 0;       //!< submitted, future not yet consumed
    u64 outstanding_bytes = 0; //!< pattern+text bytes of those requests
    u64 breaker_state = 0;     //!< BreakerState: 0 closed, 1 open, 2 half
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

/**
 * The serve counters, declared once: ServeMetrics holds them as live
 * atomics (C = std::atomic<u64>), ServeSnapshot as values (C = u64).
 */
template <class C>
struct ServeCounters
{
    // Connection lifecycle.
    C connections_accepted{};
    C connections_refused{}; //!< over the cap, or queued at stop()
    C accept_failures{};     //!< vanished between accept and handshake
    C protocol_errors{};     //!< malformed/oversized/unexpected frames

    // Frame accounting.
    C frames_in{};
    C frames_out{};
    C bytes_in{};
    C bytes_out{};

    // Request outcomes.
    C requests{};
    C responses_ok{};
    C responses_failed{};
    C quota_throttled{};
    std::array<C, kPriorityCount> shed_by_priority{};

    // Serve-level admission gauge (requests submitted, not yet answered).
    C pending{};
    C pending_peak{};

    // Dedup/result cache.
    C cache_hits{};        //!< completed entry reused
    C cache_coalesced{};   //!< joined an in-flight computation
    C cache_misses{};
    C cache_evictions{};
    C cache_invalidated{}; //!< failed results dropped from the cache
    C cache_drained{};     //!< entries dropped by breaker ejection
    C cache_entries{};     //!< current resident entries (gauge)
    C cache_bytes{};       //!< bytes charged to resident entries (gauge)

    // Deadline-budget accounting (requests carrying a wire deadline).
    C deadline_requests{};       //!< requests that carried a budget
    C deadline_refused{};        //!< budget spent before the engine
    C deadline_budget_us{};      //!< sum of budgets as received
    C deadline_queue_spent_us{}; //!< sum spent in serve-side stages

    // Resilience.
    C breaker_opens{};    //!< breaker trips across all shards
    C breaker_rejected{}; //!< Unavailable: every shard open
    std::array<C, kPriorityCount> brownout_shed{};
    C brownout_level{};     //!< current level (gauge, 0-2)
    C queue_wait_ewma_us{}; //!< smoothed response queue wait (gauge)
    C watchdog_kills{};     //!< stuck connections force-closed
};

/** Point-in-time copy of every serve counter. Plain values, no atomics. */
struct ServeSnapshot : ServeCounters<u64>
{
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
class ServeMetrics : public ServeCounters<std::atomic<u64>>
{
  public:
    /** Raise pending_peak to at least @p depth. */
    void notePendingPeak(u64 depth) { atomicMax(pending_peak, depth); }

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
    mutable std::mutex clients_mu_;
    std::unordered_map<std::string, ClientStats> clients_; //!< id unset

};

} // namespace gmx::serve

#endif // GMX_SERVE_METRICS_HH

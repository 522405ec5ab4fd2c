/**
 * @file
 * Shard router: balance alignment requests across M engines and dedup
 * identical requests through a sharded result cache bounded in bytes.
 *
 * Routing is load-based, not hash-based: every request goes to the
 * shard with the least outstanding work, scored as outstanding bytes
 * plus a per-request constant (so many tiny requests and one huge one
 * weigh comparably). Outstanding load is decremented by complete(), so
 * the score tracks what each engine is actually still chewing on rather
 * than what was ever sent to it.
 *
 * Key. A cache entry is named by a 128-bit SipHash-2-4 digest of
 * (pattern, text, max_edits, want_cigar), keyed once per router from
 * std::random_device so a client cannot aim two requests at one digest.
 * The entry also keeps both lengths and a hit checks them. The digest
 * picks the cache shard (high word) and the bucket (low word); no copy
 * of either sequence is kept or allocated per request.
 *
 * Bytes. cache_bytes bounds the bytes the entries hold, split evenly
 * across cache shards. An entry is charged kCacheEntryBytes (its map
 * node, its shared future's state and result, measured with mallinfo2)
 * plus n + m when it carries a CIGAR: ops are one byte and a traceback
 * reserves n + m of them. Long-class pairs (engine::lengthClassFor)
 * bypass the cache, as does an entry larger than a shard's budget.
 *
 * Policy. Each cache shard runs SIEVE: entries sit in insertion order,
 * a hit sets the entry's visited bit, and to make room a hand walks
 * from the oldest entry towards the newest, clearing visited bits and
 * evicting the first entry it finds unvisited. Entries that are hit
 * stay where they are, so a scan of one-off keys evicts other one-off
 * keys and passes over the hot set.
 *
 * The cache stores shared_futures, which buys coalescing for free: a
 * second request for a key whose computation is still in flight joins
 * the same future instead of resubmitting. Failed computations must not
 * be served from the cache, so each entry carries a generation stamp
 * and complete() erases the entry only if the generation still matches
 * — a concurrent re-insert under the same key is left alone.
 *
 * Lock discipline: no cache-shard lock is ever held across
 * Engine::submit (which can block under Block backpressure). The miss
 * path is lookup/unlock/submit/lock/insert; the worst case is two
 * threads both missing and both submitting, in which case the second
 * insert loses and one duplicate computation runs — correctness is
 * unaffected and the window is a few microseconds.
 *
 * Circuit breaking: each shard keeps a rolling window of its last
 * breaker_window completions; when at least breaker_min_samples have
 * accumulated and the failure fraction (errors, plus completions
 * slower than breaker_slow threshold when configured) reaches
 * breaker_open_ratio, the shard trips Closed→Open: routing skips it
 * and its dedup-cache entries are drained (a sick shard's results are
 * suspect, and new traffic must not coalesce onto its in-flight
 * futures). After breaker_cooldown the shard turns HalfOpen and admits
 * exactly ONE probe request — success closes the breaker and resets
 * the window, failure reopens it for another cooldown. When every
 * shard is open, submit() returns a ready ticket carrying a typed
 * Unavailable instead of blocking or routing into a known-sick engine.
 */

#ifndef GMX_SERVE_ROUTER_HH
#define GMX_SERVE_ROUTER_HH

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/siphash.hh"
#include "engine/engine.hh"
#include "serve/metrics.hh"

namespace gmx::serve {

/**
 * Bytes charged per cache entry besides its CIGAR: the map node, the
 * shared future's state and its AlignOutcome, as mallinfo2 measured
 * them (see RouterCache.BytesStayWithinTheCap).
 */
inline constexpr size_t kCacheEntryBytes = 320;

/** ShardRouter construction parameters. */
struct RouterConfig
{
    /**
     * Bytes charged to cached results across all cache shards (0
     * disables). The default is what 4096 cached short (150 + 150 bp)
     * distance results held when each entry kept two string copies of
     * its key, 4 000 KiB.
     */
    size_t cache_bytes = 4000 * 1024;

    /** Cache lock shards; requests hash across them by key. */
    size_t cache_shards = 8;

    /** Rolling completions judged per shard (0 disables the breaker). */
    size_t breaker_window = 32;

    /** Completions required before the window may trip the breaker. */
    size_t breaker_min_samples = 8;

    /** Failure fraction of the window that opens the breaker. */
    double breaker_open_ratio = 0.5;

    /** How long an open breaker waits before admitting one probe. */
    std::chrono::milliseconds breaker_cooldown{1000};

    /**
     * Latency leg of shard health: an Ok completion slower than this
     * still counts as a window failure (0 = errors only).
     */
    std::chrono::microseconds breaker_slow{0};
};

/** Circuit-breaker state of one shard. */
enum class BreakerState : u8 { Closed = 0, Open = 1, HalfOpen = 2 };

/** Human-readable breaker-state name ("closed" / "open" / "half_open"). */
const char *breakerStateName(BreakerState s);

/**
 * One routed request. The future is always fulfilled with a Result
 * (engine contract); owner tickets MUST be passed to complete() once
 * the future has been consumed so shard load and cache state settle.
 */
struct Ticket
{
    std::shared_future<engine::Engine::AlignOutcome> future;
    size_t shard = 0;      //!< engine index (meaningful when owner)
    u64 bytes = 0;         //!< pattern+text bytes charged to the shard
    bool owner = false;    //!< this ticket submitted the computation
    bool cache_hit = false;  //!< served from a completed cache entry
    bool coalesced = false;  //!< joined an in-flight computation
    bool probe = false;    //!< the single HalfOpen recovery probe
    Digest128 key;         //!< cache key digest (meaningful when gen != 0)
    u64 gen = 0;           //!< entry generation; 0 = inserted no entry
};

/**
 * Routes requests to the least-loaded of M engines, deduplicating
 * identical requests through a sharded SIEVE cache of shared futures.
 * Thread-safe. Does not own the engines; they must outlive the router.
 */
class ShardRouter
{
  public:
    /** @p engines must be non-empty; @p metrics must be non-null. */
    ShardRouter(std::vector<engine::Engine *> engines, RouterConfig config,
                ServeMetrics *metrics);

    /**
     * Route one validated pair. Checks the cache first (hit/coalesce),
     * else submits to the least-loaded breaker-eligible engine and
     * caches the future. @p timeout (0 = none) becomes the engine-side
     * deadline: expiry fails the request before dispatch if queued, or
     * mid-kernel via the cooperative cancel gate. When every shard's
     * breaker is open the returned ticket is already fulfilled with a
     * typed Unavailable (owner == false; complete() is a no-op).
     */
    Ticket submit(const seq::SequencePair &pair, bool want_cigar,
                  u32 max_edits,
                  std::chrono::nanoseconds timeout = {});

    /**
     * Settle a ticket after its future was consumed. @p code is the
     * outcome's status; failed owner computations are evicted from the
     * cache so a transient Overloaded is not replayed forever, and the
     * shard's breaker window absorbs the verdict (@p service_us feeds
     * the latency leg; pass 0 to skip it).
     */
    void complete(const Ticket &ticket, StatusCode code,
                  u64 service_us = 0);

    /** Per-engine routing stats, index-aligned with the engine list. */
    std::vector<ShardStats> shardStats() const;

    /** Current breaker state of one shard (tests/metrics). */
    BreakerState breakerState(size_t shard) const;

    /** Total requests submitted to engines and not yet completed. */
    u64 outstanding() const;

    /** Current resident cache entries (sums all cache shards). */
    size_t cacheEntries() const;

    size_t engineCount() const { return engines_.size(); }

  private:
    /** Load scoreboard for one engine. */
    struct ShardLoad
    {
        std::atomic<u64> routed{0};
        std::atomic<u64> outstanding{0};
        std::atomic<u64> outstanding_bytes{0};
    };

    /** Bucket index from the digest's low word (its high word picks the
     *  cache shard). */
    struct DigestHash
    {
        size_t operator()(const Digest128 &d) const noexcept
        {
            return static_cast<size_t>(d.lo);
        }
    };

    /** One lock shard of the dedup cache: digest map plus SIEVE queue. */
    struct CacheShard
    {
        struct Entry;
        using Node = std::pair<const Digest128, Entry>; //!< a map node
        struct Entry
        {
            std::shared_future<engine::Engine::AlignOutcome> future;
            u64 gen = 0;
            Node *newer = nullptr; //!< SIEVE queue neighbours
            Node *older = nullptr;
            u32 n = 0;             //!< pattern length, checked on a hit
            u32 m = 0;             //!< text length, checked on a hit
            u64 charge = 0;        //!< bytes charged to this shard
            u32 shard = 0;         //!< owning engine (for breaker drains)
            bool visited = false;  //!< hit since the hand last passed it
        };
        using Map = std::unordered_map<Digest128, Entry, DigestHash>;

        /** Link a fresh node as the newest entry. */
        void pushNewest(Node *node);

        /** Unlink @p node from the queue, moving the hand past it. */
        void unlink(Node *node);

        /**
         * SIEVE's victim: from the hand (or the oldest entry) towards
         * the newest, wrapping, clear each visited bit passed and stop
         * at the first unvisited entry. The queue must be non-empty.
         */
        Node *victim();

        mutable std::mutex mu;
        Map map;
        Node *newest = nullptr;
        Node *oldest = nullptr;
        Node *hand = nullptr; //!< next eviction candidate (null = oldest)
        size_t bytes = 0;     //!< charged to resident entries
    };

    /** Rolling health window + breaker state for one engine. */
    struct Breaker
    {
        mutable std::mutex mu;
        std::vector<u8> ring;  //!< 1 = failure; breaker_window slots
        size_t next = 0;       //!< ring cursor
        size_t samples = 0;
        size_t fails = 0;
        BreakerState state = BreakerState::Closed;
        std::chrono::steady_clock::time_point opened_at{};
        bool probe_inflight = false;
        u64 opens = 0;  //!< cumulative Closed/HalfOpen -> Open trips
        u64 probes = 0; //!< cumulative HalfOpen probes admitted
    };

    /**
     * Least-loaded shard whose breaker admits traffic; claims the
     * HalfOpen probe slot when one is due (sets @p probe). Returns
     * engines_.size() when every shard is open.
     */
    size_t pickShard(u64 bytes, bool &probe);
    CacheShard &cacheShardFor(const Digest128 &key);

    /** The keyed digest naming one request's cached result. */
    Digest128 keyOf(const seq::SequencePair &pair, bool want_cigar,
                    u32 max_edits) const;

    /** Cache @p t's future under t.key unless an entry holds it already;
     *  evicts SIEVE victims until @p charge fits the shard's budget. */
    void insert(Ticket &t, u32 n, u32 m, u64 charge);

    /** Erase one entry and refund its bytes; returns the next entry. */
    CacheShard::Map::iterator drop(CacheShard &cs,
                                   CacheShard::Map::iterator it);

    /** Record one completion verdict; may trip the breaker open. */
    void noteOutcome(const Ticket &ticket, bool shard_fail);

    /** Drop every cache entry owned by @p shard (breaker ejection). */
    void drainShardCache(size_t shard);

    std::vector<engine::Engine *> engines_;
    RouterConfig config_;
    ServeMetrics *metrics_;
    size_t shard_bytes_ = 0; //!< per cache shard; 0 = cache disabled
    u64 hash_k0_ = 0;        //!< SipHash key, drawn once per router
    u64 hash_k1_ = 0;
    std::vector<std::unique_ptr<ShardLoad>> loads_;
    std::vector<std::unique_ptr<Breaker>> breakers_;
    std::vector<std::unique_ptr<CacheShard>> cache_;
    std::atomic<u64> next_gen_{1};
};

} // namespace gmx::serve

#endif // GMX_SERVE_ROUTER_HH

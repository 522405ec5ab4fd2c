#include "serve/router.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>

namespace gmx::serve {

namespace {

/**
 * Per-request constant added to a shard's byte load so request count
 * matters even when every pair is tiny.
 */
constexpr u64 kPerRequestWeight = 1024;

bool
ready(const std::shared_future<engine::Engine::AlignOutcome> &f)
{
    return f.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

} // namespace

std::string
cacheKey(const seq::SequencePair &pair, bool want_cigar, u32 max_edits)
{
    // Sequences are normalized ACGT, so '|' cannot collide with content.
    std::string key;
    key.reserve(pair.pattern.size() + pair.text.size() + 16);
    key += pair.pattern.str();
    key += '|';
    key += pair.text.str();
    key += '|';
    key += std::to_string(max_edits);
    key += want_cigar ? "|c" : "|d";
    return key;
}

const char *
breakerStateName(BreakerState s)
{
    switch (s) {
      case BreakerState::Closed:
        return "closed";
      case BreakerState::Open:
        return "open";
      case BreakerState::HalfOpen:
        return "half_open";
    }
    return "?";
}

ShardRouter::ShardRouter(std::vector<engine::Engine *> engines,
                         RouterConfig config, ServeMetrics *metrics)
    : engines_(std::move(engines)), config_(config), metrics_(metrics)
{
    assert(!engines_.empty() && "ShardRouter needs at least one engine");
    assert(metrics_ != nullptr);
    loads_.reserve(engines_.size());
    breakers_.reserve(engines_.size());
    for (size_t i = 0; i < engines_.size(); ++i) {
        loads_.push_back(std::make_unique<ShardLoad>());
        breakers_.push_back(std::make_unique<Breaker>());
        if (config_.breaker_window > 0)
            breakers_.back()->ring.assign(config_.breaker_window, 0);
    }
    if (config_.cache_capacity > 0) {
        const size_t shards = std::max<size_t>(1, config_.cache_shards);
        per_shard_capacity_ =
            std::max<size_t>(1, config_.cache_capacity / shards);
        cache_.reserve(shards);
        for (size_t i = 0; i < shards; ++i)
            cache_.push_back(std::make_unique<CacheShard>());
    }
}

size_t
ShardRouter::pickShard(u64 bytes, bool &probe)
{
    probe = false;
    size_t best = loads_.size();
    u64 best_score = ~u64{0};
    const bool breaking = config_.breaker_window > 0;
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < loads_.size(); ++i) {
        if (breaking) {
            Breaker &b = *breakers_[i];
            std::lock_guard<std::mutex> lk(b.mu);
            if (b.state == BreakerState::Open &&
                now - b.opened_at >= config_.breaker_cooldown) {
                b.state = BreakerState::HalfOpen;
                b.probe_inflight = false;
            }
            if (b.state == BreakerState::Open)
                continue;
            if (b.state == BreakerState::HalfOpen) {
                // Exactly one trial request per cooldown: claim the
                // probe slot now, under the breaker lock, and prefer it
                // over any healthy shard so recovery is prompt.
                if (b.probe_inflight || probe)
                    continue;
                b.probe_inflight = true;
                ++b.probes;
                probe = true;
                best = i;
                continue;
            }
        }
        if (probe)
            continue; // the probe claim outranks load scores
        const ShardLoad &l = *loads_[i];
        const u64 score =
            l.outstanding_bytes.load(std::memory_order_relaxed) +
            l.outstanding.load(std::memory_order_relaxed) *
                kPerRequestWeight;
        if (score < best_score) {
            best_score = score;
            best = i;
        }
    }
    if (best == loads_.size())
        return best; // every shard circuit-broken
    ShardLoad &l = *loads_[best];
    l.routed.fetch_add(1, std::memory_order_relaxed);
    l.outstanding.fetch_add(1, std::memory_order_relaxed);
    l.outstanding_bytes.fetch_add(bytes, std::memory_order_relaxed);
    return best;
}

ShardRouter::CacheShard &
ShardRouter::cacheShardFor(const std::string &key)
{
    return *cache_[std::hash<std::string>{}(key) % cache_.size()];
}

Ticket
ShardRouter::submit(const seq::SequencePair &pair, bool want_cigar,
                    u32 max_edits, std::chrono::nanoseconds timeout)
{
    Ticket t;
    t.bytes = pair.pattern.size() + pair.text.size();

    const bool cached = per_shard_capacity_ > 0;
    if (cached) {
        t.key = cacheKey(pair, want_cigar, max_edits);
        CacheShard &cs = cacheShardFor(t.key);
        std::unique_lock<std::mutex> lk(cs.mu);
        auto it = cs.map.find(t.key);
        if (it != cs.map.end()) {
            cs.lru.splice(cs.lru.begin(), cs.lru, it->second.lru_it);
            t.future = it->second.future;
            lk.unlock();
            // Ready => a completed result is being reused; not ready =>
            // we coalesced onto someone else's in-flight computation.
            if (ready(t.future)) {
                t.cache_hit = true;
                metrics_->cache_hits.fetch_add(1,
                                               std::memory_order_relaxed);
            } else {
                t.coalesced = true;
                metrics_->cache_coalesced.fetch_add(
                    1, std::memory_order_relaxed);
            }
            t.key.clear(); // non-owners never invalidate
            return t;
        }
        metrics_->cache_misses.fetch_add(1, std::memory_order_relaxed);
        // Fall through with the lock RELEASED: Engine::submit may block
        // under Block backpressure and must not stall cache readers.
    }

    const size_t shard = pickShard(t.bytes, t.probe);
    if (shard == engines_.size()) {
        // Every shard's breaker is open: refuse with a typed code
        // instead of routing into a known-sick engine. The ticket is
        // pre-fulfilled, owns nothing, and settles nothing.
        metrics_->breaker_rejected.fetch_add(1, std::memory_order_relaxed);
        std::promise<engine::Engine::AlignOutcome> refused;
        refused.set_value(engine::Engine::AlignOutcome(
            Status::unavailable("all shards circuit-broken")));
        t.future = refused.get_future().share();
        t.key.clear();
        return t;
    }
    t.owner = true;
    t.shard = shard;
    engine::SubmitOptions opts;
    opts.want_cigar = want_cigar;
    opts.timeout = timeout;
    t.future = engines_[t.shard]->submit(pair, opts).share();

    if (cached) {
        CacheShard &cs = cacheShardFor(t.key);
        std::lock_guard<std::mutex> lk(cs.mu);
        auto [it, fresh] = cs.map.try_emplace(t.key);
        if (!fresh) {
            // A concurrent miss inserted first; keep theirs, run our
            // duplicate to completion (rare, harmless).
            t.key.clear();
            return t;
        }
        it->second.future = t.future;
        it->second.gen =
            next_gen_.fetch_add(1, std::memory_order_relaxed);
        it->second.shard = t.shard;
        cs.lru.push_front(t.key);
        it->second.lru_it = cs.lru.begin();
        t.gen = it->second.gen;
        metrics_->cache_entries.fetch_add(1, std::memory_order_relaxed);
        if (cs.map.size() > per_shard_capacity_) {
            const std::string &victim = cs.lru.back();
            cs.map.erase(victim);
            cs.lru.pop_back();
            metrics_->cache_evictions.fetch_add(
                1, std::memory_order_relaxed);
            metrics_->cache_entries.fetch_sub(1,
                                              std::memory_order_relaxed);
        }
    }
    return t;
}

void
ShardRouter::complete(const Ticket &ticket, StatusCode code,
                      u64 service_us)
{
    if (!ticket.owner)
        return;
    ShardLoad &l = *loads_[ticket.shard];
    l.outstanding.fetch_sub(1, std::memory_order_relaxed);
    l.outstanding_bytes.fetch_sub(ticket.bytes,
                                  std::memory_order_relaxed);

    const bool ok = code == StatusCode::Ok;
    if (config_.breaker_window > 0) {
        // Shard-health verdict: errors the shard caused (overload,
        // internal, deadline blown inside the engine) count against it;
        // a caller's own cancellation or bad input does not. The
        // latency leg turns a technically-Ok-but-glacial completion
        // into a failure too, when configured.
        bool shard_fail = !ok && code != StatusCode::InvalidInput &&
                          code != StatusCode::Cancelled;
        if (ok && config_.breaker_slow.count() > 0 &&
            service_us > static_cast<u64>(config_.breaker_slow.count()))
            shard_fail = true;
        noteOutcome(ticket, shard_fail);
    }

    if (ok || ticket.key.empty())
        return;
    // Failed computation: drop the cached future so the failure is not
    // replayed, but only if the entry is still OUR generation — an
    // evict-then-reinsert under the same key must survive.
    CacheShard &cs = cacheShardFor(ticket.key);
    std::lock_guard<std::mutex> lk(cs.mu);
    auto it = cs.map.find(ticket.key);
    if (it == cs.map.end() || it->second.gen != ticket.gen)
        return;
    cs.lru.erase(it->second.lru_it);
    cs.map.erase(it);
    metrics_->cache_invalidated.fetch_add(1, std::memory_order_relaxed);
    metrics_->cache_entries.fetch_sub(1, std::memory_order_relaxed);
}

void
ShardRouter::noteOutcome(const Ticket &ticket, bool shard_fail)
{
    Breaker &b = *breakers_[ticket.shard];
    bool drain = false;
    {
        std::lock_guard<std::mutex> lk(b.mu);
        if (ticket.probe) {
            // The HalfOpen trial decides alone: success closes the
            // breaker with a fresh window, failure reopens the cooldown.
            b.probe_inflight = false;
            if (shard_fail) {
                b.state = BreakerState::Open;
                b.opened_at = std::chrono::steady_clock::now();
                ++b.opens;
                drain = true;
            } else {
                b.state = BreakerState::Closed;
                std::fill(b.ring.begin(), b.ring.end(), u8{0});
                b.next = 0;
                b.samples = 0;
                b.fails = 0;
            }
        } else if (b.state == BreakerState::Closed) {
            if (b.samples == b.ring.size())
                b.fails -= b.ring[b.next];
            else
                ++b.samples;
            b.ring[b.next] = shard_fail ? 1 : 0;
            b.fails += b.ring[b.next];
            b.next = (b.next + 1) % b.ring.size();
            if (b.samples >= config_.breaker_min_samples &&
                static_cast<double>(b.fails) >=
                    config_.breaker_open_ratio *
                        static_cast<double>(b.samples)) {
                b.state = BreakerState::Open;
                b.opened_at = std::chrono::steady_clock::now();
                ++b.opens;
                drain = true;
            }
        }
        // Open/HalfOpen: stragglers routed before the trip carry no
        // vote; the probe alone decides recovery.
    }
    if (drain) {
        metrics_->breaker_opens.fetch_add(1, std::memory_order_relaxed);
        drainShardCache(ticket.shard);
    }
}

void
ShardRouter::drainShardCache(size_t shard)
{
    // An ejected shard's cached futures are suspect (failed, slow, or
    // still wedged in-flight): drop them so new traffic neither reuses
    // nor coalesces onto them.
    u64 drained = 0;
    for (const auto &csp : cache_) {
        CacheShard &cs = *csp;
        std::lock_guard<std::mutex> lk(cs.mu);
        for (auto it = cs.map.begin(); it != cs.map.end();) {
            if (it->second.shard == shard) {
                cs.lru.erase(it->second.lru_it);
                it = cs.map.erase(it);
                ++drained;
            } else {
                ++it;
            }
        }
    }
    if (drained > 0) {
        metrics_->cache_drained.fetch_add(drained,
                                          std::memory_order_relaxed);
        metrics_->cache_entries.fetch_sub(drained,
                                          std::memory_order_relaxed);
    }
}

BreakerState
ShardRouter::breakerState(size_t shard) const
{
    const Breaker &b = *breakers_[shard];
    std::lock_guard<std::mutex> lk(b.mu);
    return b.state;
}

std::vector<ShardStats>
ShardRouter::shardStats() const
{
    std::vector<ShardStats> out;
    out.reserve(loads_.size());
    for (size_t i = 0; i < loads_.size(); ++i) {
        const auto &l = loads_[i];
        ShardStats s;
        s.routed = l->routed.load(std::memory_order_relaxed);
        s.outstanding = l->outstanding.load(std::memory_order_relaxed);
        s.outstanding_bytes =
            l->outstanding_bytes.load(std::memory_order_relaxed);
        {
            const Breaker &b = *breakers_[i];
            std::lock_guard<std::mutex> lk(b.mu);
            s.breaker_state = static_cast<u64>(b.state);
            s.breaker_opens = b.opens;
            s.breaker_probes = b.probes;
            s.window_samples = b.samples;
            s.window_fails = b.fails;
        }
        out.push_back(s);
    }
    return out;
}

u64
ShardRouter::outstanding() const
{
    u64 total = 0;
    for (const auto &l : loads_)
        total += l->outstanding.load(std::memory_order_relaxed);
    return total;
}

size_t
ShardRouter::cacheEntries() const
{
    size_t total = 0;
    for (const auto &cs : cache_) {
        std::lock_guard<std::mutex> lk(cs->mu);
        total += cs->map.size();
    }
    return total;
}

} // namespace gmx::serve

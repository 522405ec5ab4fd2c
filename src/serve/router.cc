#include "serve/router.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <random>

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
    if (config_.cache_bytes > 0) {
        const size_t shards = std::max<size_t>(1, config_.cache_shards);
        shard_bytes_ = config_.cache_bytes / shards;
        cache_.reserve(shards);
        // Buckets for the most entries a shard can hold, allocated once:
        // no rehash ever runs under a shard lock.
        for (size_t i = 0; i < shards; ++i) {
            cache_.push_back(std::make_unique<CacheShard>());
            cache_.back()->map.reserve(shard_bytes_ / kCacheEntryBytes);
        }
        std::random_device rd;
        hash_k0_ = u64{rd()} << 32 | rd();
        hash_k1_ = u64{rd()} << 32 | rd();
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

void
ShardRouter::CacheShard::pushNewest(Node *node)
{
    node->second.older = newest;
    node->second.newer = nullptr;
    if (newest != nullptr)
        newest->second.newer = node;
    else
        oldest = node;
    newest = node;
}

void
ShardRouter::CacheShard::unlink(Node *node)
{
    Entry &e = node->second;
    if (hand == node)
        hand = e.newer;
    (e.older != nullptr ? e.older->second.newer : oldest) = e.newer;
    (e.newer != nullptr ? e.newer->second.older : newest) = e.older;
}

ShardRouter::CacheShard::Node *
ShardRouter::CacheShard::victim()
{
    Node *node = hand != nullptr ? hand : oldest;
    while (node->second.visited) {
        node->second.visited = false;
        node = node->second.newer != nullptr ? node->second.newer : oldest;
    }
    hand = node; // unlinking the victim moves the hand to its newer side
    return node;
}

ShardRouter::CacheShard &
ShardRouter::cacheShardFor(const Digest128 &key)
{
    return *cache_[key.hi % cache_.size()];
}

Digest128
ShardRouter::keyOf(const seq::SequencePair &pair, bool want_cigar,
                   u32 max_edits) const
{
    SipHash128 h(hash_k0_, hash_k1_);
    // The lengths come first, so they fix where the pattern ends.
    h.updateWord(pair.pattern.size());
    h.updateWord(pair.text.size());
    h.updateWord(u64{max_edits} << 1 | (want_cigar ? 1 : 0));
    h.update(pair.pattern.str().data(), pair.pattern.size());
    h.update(pair.text.str().data(), pair.text.size());
    return h.finish();
}

ShardRouter::CacheShard::Map::iterator
ShardRouter::drop(CacheShard &cs, CacheShard::Map::iterator it)
{
    cs.unlink(&*it);
    cs.bytes -= it->second.charge;
    metrics_->cache_entries.fetch_sub(1, std::memory_order_relaxed);
    metrics_->cache_bytes.fetch_sub(it->second.charge,
                                    std::memory_order_relaxed);
    return cs.map.erase(it);
}

Ticket
ShardRouter::submit(const seq::SequencePair &pair, bool want_cigar,
                    u32 max_edits, std::chrono::nanoseconds timeout)
{
    Ticket t;
    const size_t n = pair.pattern.size();
    const size_t m = pair.text.size();
    t.bytes = n + m;

    // A CIGAR holds at most n + m one-byte ops. Long-class pairs bypass
    // the cache: they are streamed in O(window) memory precisely so
    // that no layer holds O(n + m) bytes per request.
    const u64 charge = kCacheEntryBytes + (want_cigar ? t.bytes : 0);
    const bool cached =
        charge <= shard_bytes_ &&
        engine::lengthClassFor(engines_.front()->config().cascade, n, m) ==
            align::LengthClass::Short;
    if (cached) {
        t.key = keyOf(pair, want_cigar, max_edits);
        CacheShard &cs = cacheShardFor(t.key);
        std::unique_lock<std::mutex> lk(cs.mu);
        auto it = cs.map.find(t.key);
        if (it != cs.map.end() && it->second.n == n && it->second.m == m) {
            it->second.visited = true;
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
        return t;
    }
    t.owner = true;
    t.shard = shard;
    engine::SubmitOptions opts;
    opts.want_cigar = want_cigar;
    opts.timeout = timeout;
    t.future = engines_[t.shard]->submit(pair, opts).share();

    if (cached)
        insert(t, static_cast<u32>(n), static_cast<u32>(m), charge);
    return t;
}

void
ShardRouter::insert(Ticket &t, u32 n, u32 m, u64 charge)
{
    CacheShard &cs = cacheShardFor(t.key);
    std::lock_guard<std::mutex> lk(cs.mu);
    auto [it, fresh] = cs.map.try_emplace(t.key);
    if (!fresh) {
        // A concurrent miss inserted first (or, vanishingly rarely, a
        // digest collision holds the slot); keep theirs, run our
        // duplicate to completion uncached.
        return;
    }
    // Make room before linking, so the fresh entry is never the victim.
    u64 evicted = 0;
    while (cs.bytes + charge > shard_bytes_) {
        drop(cs, cs.map.find(cs.victim()->first));
        ++evicted;
    }
    if (evicted > 0)
        metrics_->cache_evictions.fetch_add(evicted,
                                            std::memory_order_relaxed);
    CacheShard::Entry &e = it->second;
    e.future = t.future;
    e.gen = next_gen_.fetch_add(1, std::memory_order_relaxed);
    e.n = n;
    e.m = m;
    e.charge = charge;
    e.shard = static_cast<u32>(t.shard);
    cs.pushNewest(&*it);
    cs.bytes += charge;
    t.gen = e.gen;
    metrics_->cache_entries.fetch_add(1, std::memory_order_relaxed);
    metrics_->cache_bytes.fetch_add(charge, std::memory_order_relaxed);
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

    if (ok || ticket.gen == 0)
        return;
    // Failed computation: drop the cached future so the failure is not
    // replayed, but only if the entry is still OUR generation — an
    // evict-then-reinsert under the same key must survive.
    CacheShard &cs = cacheShardFor(ticket.key);
    std::lock_guard<std::mutex> lk(cs.mu);
    auto it = cs.map.find(ticket.key);
    if (it == cs.map.end() || it->second.gen != ticket.gen)
        return;
    drop(cs, it);
    metrics_->cache_invalidated.fetch_add(1, std::memory_order_relaxed);
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
                it = drop(cs, it);
                ++drained;
            } else {
                ++it;
            }
        }
    }
    if (drained > 0)
        metrics_->cache_drained.fetch_add(drained,
                                          std::memory_order_relaxed);
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

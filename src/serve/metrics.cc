#include "serve/metrics.hh"

#include <algorithm>

#include "engine/exporter.hh"

namespace gmx::serve {

namespace {

// ------------------------------------------------------- field tables
//
// Every serve metric is one row below. The table order is the /vars key
// order and the /metrics family order.

using M = ServeMetrics;
using S = ServeSnapshot;
using engine::Field;
using engine::RowField;
constexpr auto kCounter = engine::openmetrics::Type::Counter;
constexpr auto kGauge = engine::openmetrics::Type::Gauge;

std::string
priorityLabel(unsigned p)
{
    return priorityName(static_cast<Priority>(p));
}

/** Per-priority families: /vars {"low":n,...}, /metrics `priority`. */
constexpr engine::SlotLabel kPriority{"priority", &priorityLabel, true};

constexpr Field<M, S, kPriorityCount> kFields[] = {
    {nullptr, "connections_accepted", "gmx_serve_connections_accepted",
     kCounter, &S::connections_accepted, &M::connections_accepted},
    {nullptr, "connections_refused", "gmx_serve_connections_refused",
     kCounter, &S::connections_refused, &M::connections_refused},
    {nullptr, "accept_failures", "gmx_serve_accept_failures", kCounter,
     &S::accept_failures, &M::accept_failures},
    {nullptr, "protocol_errors", "gmx_serve_protocol_errors", kCounter,
     &S::protocol_errors, &M::protocol_errors},
    {nullptr, "frames_in", "gmx_serve_frames_in", kCounter, &S::frames_in,
     &M::frames_in},
    {nullptr, "frames_out", "gmx_serve_frames_out", kCounter,
     &S::frames_out, &M::frames_out},
    {nullptr, "bytes_in", "gmx_serve_bytes_in", kCounter, &S::bytes_in,
     &M::bytes_in},
    {nullptr, "bytes_out", "gmx_serve_bytes_out", kCounter, &S::bytes_out,
     &M::bytes_out},
    {nullptr, "requests", "gmx_serve_requests", kCounter, &S::requests,
     &M::requests},
    {nullptr, "responses_ok", "gmx_serve_responses_ok", kCounter,
     &S::responses_ok, &M::responses_ok},
    {nullptr, "responses_failed", "gmx_serve_responses_failed", kCounter,
     &S::responses_failed, &M::responses_failed},
    {nullptr, "quota_throttled", "gmx_serve_quota_throttled", kCounter,
     &S::quota_throttled, &M::quota_throttled},
    {.group = nullptr,
     .key = "shed",
     .family = "gmx_serve_shed",
     .type = kCounter,
     .label = &kPriority,
     .slots = &S::shed_by_priority,
     .live_slots = &M::shed_by_priority},
    {nullptr, "pending", "gmx_serve_pending", kGauge, &S::pending,
     &M::pending},
    {nullptr, "pending_peak", "gmx_serve_pending_peak", kGauge,
     &S::pending_peak, &M::pending_peak},
    {"cache", "hits", "gmx_serve_cache_hits", kCounter, &S::cache_hits,
     &M::cache_hits},
    {"cache", "coalesced", "gmx_serve_cache_coalesced", kCounter,
     &S::cache_coalesced, &M::cache_coalesced},
    {"cache", "misses", "gmx_serve_cache_misses", kCounter,
     &S::cache_misses, &M::cache_misses},
    {"cache", "evictions", "gmx_serve_cache_evictions", kCounter,
     &S::cache_evictions, &M::cache_evictions},
    {"cache", "invalidated", "gmx_serve_cache_invalidated", kCounter,
     &S::cache_invalidated, &M::cache_invalidated},
    {"cache", "drained", "gmx_serve_cache_drained", kCounter,
     &S::cache_drained, &M::cache_drained},
    {"cache", "entries", "gmx_serve_cache_entries", kGauge,
     &S::cache_entries, &M::cache_entries},
    {"cache", "bytes", "gmx_serve_cache_bytes", kGauge, &S::cache_bytes,
     &M::cache_bytes},
    {.group = "cache",
     .key = "hit_rate",
     .family = "gmx_serve_cache_hit_rate",
     .type = kGauge,
     .derived = &S::cacheHitRate},
    {"deadline", "requests", "gmx_serve_deadline_requests", kCounter,
     &S::deadline_requests, &M::deadline_requests},
    {"deadline", "refused", "gmx_serve_deadline_refused", kCounter,
     &S::deadline_refused, &M::deadline_refused},
    {"deadline", "budget_us", "gmx_serve_deadline_budget_us", kCounter,
     &S::deadline_budget_us, &M::deadline_budget_us},
    {"deadline", "queue_spent_us", "gmx_serve_deadline_queue_spent_us",
     kCounter, &S::deadline_queue_spent_us, &M::deadline_queue_spent_us},
    {"resilience", "breaker_opens", "gmx_serve_breaker_opens", kCounter,
     &S::breaker_opens, &M::breaker_opens},
    {"resilience", "breaker_rejected", "gmx_serve_breaker_rejected",
     kCounter, &S::breaker_rejected, &M::breaker_rejected},
    {.group = "resilience",
     .key = "brownout_shed",
     .family = "gmx_serve_brownout_shed",
     .type = kCounter,
     .label = &kPriority,
     .slots = &S::brownout_shed,
     .live_slots = &M::brownout_shed},
    {"resilience", "brownout_level", "gmx_serve_brownout_level", kGauge,
     &S::brownout_level, &M::brownout_level},
    {"resilience", "queue_wait_ewma_us", "gmx_serve_queue_wait_ewma_us",
     kGauge, &S::queue_wait_ewma_us, &M::queue_wait_ewma_us},
    {"resilience", "watchdog_kills", "gmx_serve_watchdog_kills", kCounter,
     &S::watchdog_kills, &M::watchdog_kills},
};

/** Per-shard rows: /vars "shards":[{...}], /metrics `shard` label. */
constexpr RowField<ShardStats> kShardFields[] = {
    {"routed", "gmx_serve_shard_routed", kCounter, &ShardStats::routed},
    {"outstanding", "gmx_serve_shard_outstanding", kGauge,
     &ShardStats::outstanding},
    {"outstanding_bytes", "gmx_serve_shard_outstanding_bytes", kGauge,
     &ShardStats::outstanding_bytes},
    {"breaker_state", "gmx_serve_shard_breaker_state", kGauge,
     &ShardStats::breaker_state},
    {"breaker_opens", "gmx_serve_shard_breaker_opens", kCounter,
     &ShardStats::breaker_opens},
    {"breaker_probes", "gmx_serve_shard_breaker_probes", kCounter,
     &ShardStats::breaker_probes},
    {"window_samples", nullptr, kCounter, &ShardStats::window_samples},
    {"window_fails", nullptr, kCounter, &ShardStats::window_fails},
};

/** Per-client rows: /vars "clients":[{"id":..,...}], /metrics `client`. */
constexpr RowField<ClientStats> kClientFields[] = {
    {"requests", "gmx_serve_client_requests", kCounter,
     &ClientStats::requests},
    {"throttled", "gmx_serve_client_throttled", kCounter,
     &ClientStats::throttled},
    {"shed", "gmx_serve_client_shed", kCounter, &ClientStats::shed},
    {"completed", "gmx_serve_client_completed", kCounter,
     &ClientStats::completed},
    {"failed", "gmx_serve_client_failed", kCounter, &ClientStats::failed},
};

} // namespace

double
ServeSnapshot::cacheHitRate() const
{
    const u64 lookups = cache_hits + cache_coalesced + cache_misses;
    if (lookups == 0)
        return 0.0;
    return static_cast<double>(cache_hits + cache_coalesced) /
           static_cast<double>(lookups);
}

std::string
ServeSnapshot::toJson() const
{
    engine::JsonWriter w;
    w.beginObject();
    engine::writeFields(w, kFields, *this);
    w.key("shards").beginArray();
    for (const ShardStats &s : shards) {
        w.beginObject();
        for (const auto &f : kShardFields)
            w.key(f.key).value(s.*f.field);
        w.endObject();
    }
    w.endArray();
    w.key("clients").beginArray();
    for (const ClientStats &c : clients) {
        w.beginObject().key("id").string(c.id);
        for (const auto &f : kClientFields)
            w.key(f.key).value(c.*f.field);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
renderServeOpenMetrics(const ServeSnapshot &snap)
{
    engine::openmetrics::Writer w;
    engine::writeFields(w, kFields, snap);
    engine::writeRows(w, kShardFields, snap.shards, "shard",
                      [](size_t i) { return std::to_string(i); });
    engine::writeRows(w, kClientFields, snap.clients, "client",
                      [&](size_t i) { return snap.clients[i].id; });
    return w.str();
}

void
ServeMetrics::noteQueueWait(u64 wait_us, double alpha)
{
    u64 cur = queue_wait_ewma_us.load(std::memory_order_relaxed);
    for (;;) {
        const double folded = cur == 0
                                  ? static_cast<double>(wait_us)
                                  : static_cast<double>(cur) * (1.0 - alpha) +
                                        static_cast<double>(wait_us) * alpha;
        const u64 next = static_cast<u64>(folded + 0.5);
        if (queue_wait_ewma_us.compare_exchange_weak(
                cur, next, std::memory_order_relaxed))
            return;
    }
}

void
ServeMetrics::noteClient(const std::string &id, ClientEvent e)
{
    std::lock_guard<std::mutex> lk(clients_mu_);
    ClientStats &c = clients_[id];
    switch (e) {
      case ClientEvent::Request:
        ++c.requests;
        break;
      case ClientEvent::Throttled:
        ++c.throttled;
        break;
      case ClientEvent::Shed:
        ++c.shed;
        break;
      case ClientEvent::Completed:
        ++c.completed;
        break;
      case ClientEvent::Failed:
        ++c.failed;
        break;
    }
}

ServeSnapshot
ServeMetrics::snapshot(std::vector<ShardStats> shards) const
{
    ServeSnapshot s;
    engine::copyFields(kFields, *this, s);
    s.shards = std::move(shards);
    {
        std::lock_guard<std::mutex> lk(clients_mu_);
        s.clients.reserve(clients_.size());
        for (const auto &[id, c] : clients_) {
            s.clients.push_back(c);
            s.clients.back().id = id;
        }
    }
    std::sort(s.clients.begin(), s.clients.end(),
              [](const ClientStats &a, const ClientStats &b) {
                  return a.id < b.id;
              });
    return s;
}

} // namespace gmx::serve

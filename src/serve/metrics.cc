#include "serve/metrics.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "engine/exporter.hh"

namespace gmx::serve {

namespace {

using engine::openmetrics::counter;
using engine::openmetrics::gauge;
using engine::openmetrics::num;

/** Escape a client id for JSON / OpenMetrics label embedding. */
std::string
escapeLabel(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

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
    std::ostringstream os;
    os << "{";
    os << "\"connections_accepted\":" << connections_accepted;
    os << ",\"connections_refused\":" << connections_refused;
    os << ",\"accept_failures\":" << accept_failures;
    os << ",\"protocol_errors\":" << protocol_errors;
    os << ",\"frames_in\":" << frames_in;
    os << ",\"frames_out\":" << frames_out;
    os << ",\"bytes_in\":" << bytes_in;
    os << ",\"bytes_out\":" << bytes_out;
    os << ",\"requests\":" << requests;
    os << ",\"responses_ok\":" << responses_ok;
    os << ",\"responses_failed\":" << responses_failed;
    os << ",\"quota_throttled\":" << quota_throttled;
    os << ",\"shed\":{";
    for (unsigned p = 0; p < kPriorityCount; ++p) {
        if (p)
            os << ",";
        os << "\"" << priorityName(static_cast<Priority>(p))
           << "\":" << shed_by_priority[p];
    }
    os << "}";
    os << ",\"pending\":" << pending;
    os << ",\"pending_peak\":" << pending_peak;
    os << ",\"cache\":{";
    os << "\"hits\":" << cache_hits;
    os << ",\"coalesced\":" << cache_coalesced;
    os << ",\"misses\":" << cache_misses;
    os << ",\"evictions\":" << cache_evictions;
    os << ",\"invalidated\":" << cache_invalidated;
    os << ",\"drained\":" << cache_drained;
    os << ",\"entries\":" << cache_entries;
    os << ",\"hit_rate\":" << num(cacheHitRate());
    os << "}";
    os << ",\"deadline\":{";
    os << "\"requests\":" << deadline_requests;
    os << ",\"refused\":" << deadline_refused;
    os << ",\"budget_us\":" << deadline_budget_us;
    os << ",\"queue_spent_us\":" << deadline_queue_spent_us;
    os << "}";
    os << ",\"resilience\":{";
    os << "\"breaker_opens\":" << breaker_opens;
    os << ",\"breaker_rejected\":" << breaker_rejected;
    os << ",\"brownout_shed\":{";
    for (unsigned p = 0; p < kPriorityCount; ++p) {
        if (p)
            os << ",";
        os << "\"" << priorityName(static_cast<Priority>(p))
           << "\":" << brownout_shed[p];
    }
    os << "}";
    os << ",\"brownout_level\":" << brownout_level;
    os << ",\"queue_wait_ewma_us\":" << queue_wait_ewma_us;
    os << ",\"watchdog_kills\":" << watchdog_kills;
    os << "}";
    os << ",\"shards\":[";
    for (size_t i = 0; i < shards.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"routed\":" << shards[i].routed
           << ",\"outstanding\":" << shards[i].outstanding
           << ",\"outstanding_bytes\":" << shards[i].outstanding_bytes
           << ",\"breaker_state\":"
           << static_cast<unsigned>(shards[i].breaker_state)
           << ",\"breaker_opens\":" << shards[i].breaker_opens
           << ",\"breaker_probes\":" << shards[i].breaker_probes
           << ",\"window_samples\":" << shards[i].window_samples
           << ",\"window_fails\":" << shards[i].window_fails << "}";
    }
    os << "]";
    os << ",\"clients\":[";
    for (size_t i = 0; i < clients.size(); ++i) {
        const ClientStats &c = clients[i];
        if (i)
            os << ",";
        os << "{\"id\":\"" << escapeLabel(c.id) << "\""
           << ",\"requests\":" << c.requests
           << ",\"throttled\":" << c.throttled << ",\"shed\":" << c.shed
           << ",\"completed\":" << c.completed
           << ",\"failed\":" << c.failed << "}";
    }
    os << "]";
    os << "}";
    return os.str();
}

std::string
renderServeOpenMetrics(const ServeSnapshot &snap)
{
    std::ostringstream os;
    counter(os, "gmx_serve_connections_accepted",
            snap.connections_accepted);
    counter(os, "gmx_serve_connections_refused", snap.connections_refused);
    counter(os, "gmx_serve_accept_failures", snap.accept_failures);
    counter(os, "gmx_serve_protocol_errors", snap.protocol_errors);
    counter(os, "gmx_serve_frames_in", snap.frames_in);
    counter(os, "gmx_serve_frames_out", snap.frames_out);
    counter(os, "gmx_serve_bytes_in", snap.bytes_in);
    counter(os, "gmx_serve_bytes_out", snap.bytes_out);
    counter(os, "gmx_serve_requests", snap.requests);
    counter(os, "gmx_serve_responses_ok", snap.responses_ok);
    counter(os, "gmx_serve_responses_failed", snap.responses_failed);
    counter(os, "gmx_serve_quota_throttled", snap.quota_throttled);

    os << "# TYPE gmx_serve_shed counter\n";
    for (unsigned p = 0; p < kPriorityCount; ++p)
        os << "gmx_serve_shed_total{priority=\""
           << priorityName(static_cast<Priority>(p)) << "\"} "
           << snap.shed_by_priority[p] << "\n";

    gauge(os, "gmx_serve_pending", static_cast<double>(snap.pending));
    gauge(os, "gmx_serve_pending_peak",
          static_cast<double>(snap.pending_peak));

    counter(os, "gmx_serve_cache_hits", snap.cache_hits);
    counter(os, "gmx_serve_cache_coalesced", snap.cache_coalesced);
    counter(os, "gmx_serve_cache_misses", snap.cache_misses);
    counter(os, "gmx_serve_cache_evictions", snap.cache_evictions);
    counter(os, "gmx_serve_cache_invalidated", snap.cache_invalidated);
    counter(os, "gmx_serve_cache_drained", snap.cache_drained);
    gauge(os, "gmx_serve_cache_entries",
          static_cast<double>(snap.cache_entries));
    gauge(os, "gmx_serve_cache_hit_rate", snap.cacheHitRate());

    counter(os, "gmx_serve_deadline_requests", snap.deadline_requests);
    counter(os, "gmx_serve_deadline_refused", snap.deadline_refused);
    counter(os, "gmx_serve_deadline_budget_us", snap.deadline_budget_us);
    counter(os, "gmx_serve_deadline_queue_spent_us",
            snap.deadline_queue_spent_us);

    counter(os, "gmx_serve_breaker_opens", snap.breaker_opens);
    counter(os, "gmx_serve_breaker_rejected", snap.breaker_rejected);
    os << "# TYPE gmx_serve_brownout_shed counter\n";
    for (unsigned p = 0; p < kPriorityCount; ++p)
        os << "gmx_serve_brownout_shed_total{priority=\""
           << priorityName(static_cast<Priority>(p)) << "\"} "
           << snap.brownout_shed[p] << "\n";
    gauge(os, "gmx_serve_brownout_level",
          static_cast<double>(snap.brownout_level));
    gauge(os, "gmx_serve_queue_wait_ewma_us",
          static_cast<double>(snap.queue_wait_ewma_us));
    counter(os, "gmx_serve_watchdog_kills", snap.watchdog_kills);

    os << "# TYPE gmx_serve_shard_routed counter\n";
    for (size_t i = 0; i < snap.shards.size(); ++i)
        os << "gmx_serve_shard_routed_total{shard=\"" << i << "\"} "
           << snap.shards[i].routed << "\n";
    os << "# TYPE gmx_serve_shard_outstanding gauge\n";
    for (size_t i = 0; i < snap.shards.size(); ++i)
        os << "gmx_serve_shard_outstanding{shard=\"" << i << "\"} "
           << snap.shards[i].outstanding << "\n";
    os << "# TYPE gmx_serve_shard_outstanding_bytes gauge\n";
    for (size_t i = 0; i < snap.shards.size(); ++i)
        os << "gmx_serve_shard_outstanding_bytes{shard=\"" << i << "\"} "
           << snap.shards[i].outstanding_bytes << "\n";
    os << "# TYPE gmx_serve_shard_breaker_state gauge\n";
    for (size_t i = 0; i < snap.shards.size(); ++i)
        os << "gmx_serve_shard_breaker_state{shard=\"" << i << "\"} "
           << static_cast<unsigned>(snap.shards[i].breaker_state) << "\n";
    os << "# TYPE gmx_serve_shard_breaker_opens counter\n";
    for (size_t i = 0; i < snap.shards.size(); ++i)
        os << "gmx_serve_shard_breaker_opens_total{shard=\"" << i
           << "\"} " << snap.shards[i].breaker_opens << "\n";
    os << "# TYPE gmx_serve_shard_breaker_probes counter\n";
    for (size_t i = 0; i < snap.shards.size(); ++i)
        os << "gmx_serve_shard_breaker_probes_total{shard=\"" << i
           << "\"} " << snap.shards[i].breaker_probes << "\n";

    os << "# TYPE gmx_serve_client_requests counter\n";
    for (const ClientStats &c : snap.clients)
        os << "gmx_serve_client_requests_total{client=\""
           << escapeLabel(c.id) << "\"} " << c.requests << "\n";
    os << "# TYPE gmx_serve_client_throttled counter\n";
    for (const ClientStats &c : snap.clients)
        os << "gmx_serve_client_throttled_total{client=\""
           << escapeLabel(c.id) << "\"} " << c.throttled << "\n";
    os << "# TYPE gmx_serve_client_shed counter\n";
    for (const ClientStats &c : snap.clients)
        os << "gmx_serve_client_shed_total{client=\"" << escapeLabel(c.id)
           << "\"} " << c.shed << "\n";
    os << "# TYPE gmx_serve_client_completed counter\n";
    for (const ClientStats &c : snap.clients)
        os << "gmx_serve_client_completed_total{client=\""
           << escapeLabel(c.id) << "\"} " << c.completed << "\n";
    os << "# TYPE gmx_serve_client_failed counter\n";
    for (const ClientStats &c : snap.clients)
        os << "gmx_serve_client_failed_total{client=\""
           << escapeLabel(c.id) << "\"} " << c.failed << "\n";
    return os.str();
}

void
ServeMetrics::notePendingPeak(u64 depth)
{
    u64 cur = pending_peak.load(std::memory_order_relaxed);
    while (depth > cur &&
           !pending_peak.compare_exchange_weak(cur, depth,
                                               std::memory_order_relaxed))
        ;
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
    ClientCells &c = clients_[id];
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
    s.connections_accepted =
        connections_accepted.load(std::memory_order_relaxed);
    s.connections_refused =
        connections_refused.load(std::memory_order_relaxed);
    s.accept_failures = accept_failures.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors.load(std::memory_order_relaxed);
    s.frames_in = frames_in.load(std::memory_order_relaxed);
    s.frames_out = frames_out.load(std::memory_order_relaxed);
    s.bytes_in = bytes_in.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out.load(std::memory_order_relaxed);
    s.requests = requests.load(std::memory_order_relaxed);
    s.responses_ok = responses_ok.load(std::memory_order_relaxed);
    s.responses_failed = responses_failed.load(std::memory_order_relaxed);
    s.quota_throttled = quota_throttled.load(std::memory_order_relaxed);
    for (unsigned p = 0; p < kPriorityCount; ++p)
        s.shed_by_priority[p] =
            shed_by_priority[p].load(std::memory_order_relaxed);
    s.pending = pending.load(std::memory_order_relaxed);
    s.pending_peak = pending_peak.load(std::memory_order_relaxed);
    s.cache_hits = cache_hits.load(std::memory_order_relaxed);
    s.cache_coalesced = cache_coalesced.load(std::memory_order_relaxed);
    s.cache_misses = cache_misses.load(std::memory_order_relaxed);
    s.cache_evictions = cache_evictions.load(std::memory_order_relaxed);
    s.cache_invalidated =
        cache_invalidated.load(std::memory_order_relaxed);
    s.cache_drained = cache_drained.load(std::memory_order_relaxed);
    s.cache_entries = cache_entries.load(std::memory_order_relaxed);
    s.deadline_requests =
        deadline_requests.load(std::memory_order_relaxed);
    s.deadline_refused = deadline_refused.load(std::memory_order_relaxed);
    s.deadline_budget_us =
        deadline_budget_us.load(std::memory_order_relaxed);
    s.deadline_queue_spent_us =
        deadline_queue_spent_us.load(std::memory_order_relaxed);
    s.breaker_opens = breaker_opens.load(std::memory_order_relaxed);
    s.breaker_rejected = breaker_rejected.load(std::memory_order_relaxed);
    for (unsigned p = 0; p < kPriorityCount; ++p)
        s.brownout_shed[p] =
            brownout_shed[p].load(std::memory_order_relaxed);
    s.brownout_level = brownout_level.load(std::memory_order_relaxed);
    s.queue_wait_ewma_us =
        queue_wait_ewma_us.load(std::memory_order_relaxed);
    s.watchdog_kills = watchdog_kills.load(std::memory_order_relaxed);
    s.shards = std::move(shards);
    {
        std::lock_guard<std::mutex> lk(clients_mu_);
        s.clients.reserve(clients_.size());
        for (const auto &[id, c] : clients_) {
            ClientStats row;
            row.id = id;
            row.requests = c.requests;
            row.throttled = c.throttled;
            row.shed = c.shed;
            row.completed = c.completed;
            row.failed = c.failed;
            s.clients.push_back(std::move(row));
        }
    }
    std::sort(s.clients.begin(), s.clients.end(),
              [](const ClientStats &a, const ClientStats &b) {
                  return a.id < b.id;
              });
    return s;
}

} // namespace gmx::serve

#include "engine/exporter.hh"

#include <cstdio>
#include <sstream>

namespace gmx::engine {

namespace openmetrics {

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

void
counter(std::ostream &os, const char *name, u64 value)
{
    os << "# TYPE " << name << " counter\n"
       << name << "_total " << value << "\n";
}

void
gauge(std::ostream &os, const char *name, double value)
{
    os << "# TYPE " << name << " gauge\n" << name << " " << num(value)
       << "\n";
}

} // namespace openmetrics

namespace {

using openmetrics::counter;
using openmetrics::gauge;
using openmetrics::num;

/**
 * Upper edge of log2-microsecond bucket b, in seconds. Thin wrapper over
 * the shared latencyBucketUpperUs so exported `le` labels can never
 * drift from the snapshot's quantile edges.
 */
double
bucketUpperSeconds(size_t b)
{
    return latencyBucketUpperUs(b) * 1e-6;
}

/**
 * Emit one histogram series (cumulative buckets, sum, count) under
 * @p name with optional extra label @p tier (nullptr = unlabelled).
 * Trailing all-zero buckets are elided; the +Inf bucket always appears.
 */
void
histogramSeries(std::ostringstream &os, const char *name, const char *tier,
                const std::vector<u64> &buckets, double sum_us, u64 count)
{
    size_t last = buckets.size();
    while (last > 0 && buckets[last - 1] == 0)
        --last;
    u64 cum = 0;
    for (size_t b = 0; b < last; ++b) {
        cum += buckets[b];
        os << name << "_bucket{";
        if (tier)
            os << "tier=\"" << tier << "\",";
        os << "le=\"" << num(bucketUpperSeconds(b)) << "\"} " << cum
           << "\n";
    }
    os << name << "_bucket{";
    if (tier)
        os << "tier=\"" << tier << "\",";
    os << "le=\"+Inf\"} " << count << "\n";
    os << name << "_sum";
    if (tier)
        os << "{tier=\"" << tier << "\"}";
    os << " " << num(sum_us * 1e-6) << "\n";
    os << name << "_count";
    if (tier)
        os << "{tier=\"" << tier << "\"}";
    os << " " << count << "\n";
}

} // namespace

std::string
renderOpenMetrics(const MetricsSnapshot &snap)
{
    std::ostringstream os;

    // Submission front-end counters.
    counter(os, "gmx_requests_submitted", snap.submitted);
    counter(os, "gmx_requests_completed", snap.completed);
    counter(os, "gmx_requests_failed", snap.failed);
    counter(os, "gmx_requests_rejected", snap.rejected);
    counter(os, "gmx_requests_shed", snap.shed);
    counter(os, "gmx_requests_invalid", snap.invalid);
    counter(os, "gmx_requests_deadline_missed", snap.deadline_missed);
    counter(os, "gmx_requests_cancelled", snap.cancelled);
    counter(os, "gmx_requests_downgraded", snap.downgraded);
    counter(os, "gmx_requests_resource_rejected", snap.resource_rejected);
    counter(os, "gmx_microbatches", snap.microbatches);
    counter(os, "gmx_batched_pairs", snap.batched_pairs);
    counter(os, "gmx_filter_batches", snap.filter_batches);
    counter(os, "gmx_filter_batched_pairs", snap.filter_batched_pairs);
    // Lane-occupancy breakdown of the packed filter groups.
    os << "# TYPE gmx_filter_batch_groups counter\n";
    for (size_t l = 0; l < snap.filter_batch_lanes.size(); ++l)
        os << "gmx_filter_batch_groups_total{lanes=\"" << (l + 1)
           << "\"} " << snap.filter_batch_lanes[l] << "\n";
    counter(os, "gmx_pool_tasks_executed", snap.pool_executed);

    // Queue / pool / memory-budget gauges.
    gauge(os, "gmx_queue_depth", static_cast<double>(snap.queue_depth));
    gauge(os, "gmx_queue_peak", static_cast<double>(snap.queue_peak));
    gauge(os, "gmx_pool_workers", static_cast<double>(snap.pool_workers));
    gauge(os, "gmx_memory_budget_bytes",
          static_cast<double>(snap.mem_budget_bytes));
    gauge(os, "gmx_memory_reserved_bytes",
          static_cast<double>(snap.mem_reserved_bytes));
    gauge(os, "gmx_memory_reserved_peak_bytes",
          static_cast<double>(snap.mem_reserved_peak));
    gauge(os, "gmx_arena_peak_bytes",
          static_cast<double>(snap.arena_peak_bytes));

    // Per-tier counters and gauges, one family per quantity.
    os << "# TYPE gmx_tier_completed counter\n";
    for (unsigned t = 0; t < kTierCount; ++t)
        os << "gmx_tier_completed_total{tier=\""
           << tierName(static_cast<Tier>(t)) << "\"} " << snap.tier_hits[t]
           << "\n";
    os << "# TYPE gmx_tier_attempts counter\n";
    for (unsigned t = 0; t < kTierCount; ++t)
        os << "gmx_tier_attempts_total{tier=\""
           << tierName(static_cast<Tier>(t)) << "\"} "
           << snap.tiers[t].attempts << "\n";
    os << "# TYPE gmx_tier_cells counter\n";
    for (unsigned t = 0; t < kTierCount; ++t)
        os << "gmx_tier_cells_total{tier=\""
           << tierName(static_cast<Tier>(t)) << "\"} "
           << snap.tiers[t].cells << "\n";
    os << "# TYPE gmx_tier_peak_bytes gauge\n";
    for (unsigned t = 0; t < kTierCount; ++t)
        os << "gmx_tier_peak_bytes{tier=\""
           << tierName(static_cast<Tier>(t)) << "\"} "
           << snap.tier_peak_bytes[t] << "\n";
    // Seconds of kernel work split by phase: setup is mask/grid building
    // and scratch carving, kernel is the DP loop plus traceback. The
    // gcups gauge below divides cells by the kernel phase only.
    os << "# TYPE gmx_tier_setup_seconds counter\n";
    for (unsigned t = 0; t < kTierCount; ++t)
        os << "gmx_tier_setup_seconds_total{tier=\""
           << tierName(static_cast<Tier>(t)) << "\"} "
           << num(snap.tiers[t].setup_us * 1e-6) << "\n";
    os << "# TYPE gmx_tier_kernel_seconds counter\n";
    for (unsigned t = 0; t < kTierCount; ++t)
        os << "gmx_tier_kernel_seconds_total{tier=\""
           << tierName(static_cast<Tier>(t)) << "\"} "
           << num(snap.tiers[t].kernel_us * 1e-6) << "\n";
    os << "# TYPE gmx_tier_gcups gauge\n";
    for (unsigned t = 0; t < kTierCount; ++t)
        os << "gmx_tier_gcups{tier=\"" << tierName(static_cast<Tier>(t))
           << "\"} " << num(snap.tiers[t].gcups) << "\n";

    // Latency histograms: end-to-end, then the queue-wait/service split.
    os << "# TYPE gmx_request_latency_seconds histogram\n";
    histogramSeries(os, "gmx_request_latency_seconds", nullptr,
                    snap.latency_buckets, snap.latency_sum_us,
                    snap.latency_count);
    os << "# TYPE gmx_queue_wait_seconds histogram\n";
    for (unsigned t = 0; t < kTierCount; ++t) {
        const LatencySummary &s = snap.tiers[t].queue_wait;
        histogramSeries(os, "gmx_queue_wait_seconds",
                        tierName(static_cast<Tier>(t)), s.buckets, s.sum_us,
                        s.count);
    }
    os << "# TYPE gmx_service_time_seconds histogram\n";
    for (unsigned t = 0; t < kTierCount; ++t) {
        const LatencySummary &s = snap.tiers[t].service;
        histogramSeries(os, "gmx_service_time_seconds",
                        tierName(static_cast<Tier>(t)), s.buckets, s.sum_us,
                        s.count);
    }

    os << "# EOF\n";
    return os.str();
}

} // namespace gmx::engine

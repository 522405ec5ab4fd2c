#include "engine/metrics.hh"

#include <cmath>
#include <sstream>

namespace gmx::engine {

const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::Filter:
        return "filter";
      case Tier::Banded:
        return "banded";
      case Tier::Full:
        return "full";
      case Tier::Downgraded:
        return "downgraded";
      case Tier::Streamed:
        return "streamed";
    }
    return "?";
}

void
LatencyHistogram::record(double seconds)
{
    double us = seconds * 1e6;
    // Clamp garbage before std::log2 / the size_t cast see it: NaN and
    // negative samples (stepped clocks) land in bucket 0 as 0us, +inf
    // and oversized samples (fault-injected stalls) in the last bucket
    // at its lower edge. kMaxUs = 2^(kBuckets-2) is that edge.
    constexpr double kMaxUs = 1ull << (kBuckets - 2);
    size_t bucket;
    if (std::isnan(us) || us < 1.0) {
        bucket = 0;
        us = std::isnan(us) || us < 0.0 ? 0.0 : us;
    } else if (us >= kMaxUs) {
        bucket = kBuckets - 1;
        us = kMaxUs;
    } else {
        bucket = static_cast<size_t>(std::log2(us)) + 1;
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
}

std::vector<u64>
LatencyHistogram::buckets() const
{
    std::vector<u64> out(kBuckets);
    for (size_t b = 0; b < kBuckets; ++b)
        out[b] = buckets_[b].load(std::memory_order_relaxed);
    return out;
}

void
EngineMetrics::noteMax(std::atomic<u64> &slot, u64 value)
{
    u64 cur = slot.load(std::memory_order_relaxed);
    while (value > cur &&
           !slot.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
}

void
EngineMetrics::notePeak(u64 depth)
{
    noteMax(queue_peak, depth);
}

namespace {

/** Approximate quantile from the log2 histogram (bucket upper bound). */
double
quantileUs(const std::vector<u64> &buckets, u64 total, double q)
{
    if (total == 0)
        return 0.0;
    const double target = q * static_cast<double>(total);
    double seen = 0;
    for (size_t b = 0; b < buckets.size(); ++b) {
        seen += static_cast<double>(buckets[b]);
        if (seen >= target)
            return latencyBucketUpperUs(b);
    }
    return latencyBucketUpperUs(buckets.size() - 1);
}

/** Summarize one live histogram into plain values. */
LatencySummary
summarize(const LatencyHistogram &h)
{
    LatencySummary s;
    s.buckets = h.buckets();
    for (u64 c : s.buckets)
        s.count += c;
    s.sum_us = h.sumUs();
    s.mean_us = s.count ? s.sum_us / static_cast<double>(s.count) : 0.0;
    s.p50_us = quantileUs(s.buckets, s.count, 0.50);
    s.p99_us = quantileUs(s.buckets, s.count, 0.99);
    return s;
}

} // namespace

MetricsSnapshot
EngineMetrics::snapshot(u64 pool_workers, u64 pool_executed,
                        u64 mem_budget_bytes, u64 mem_reserved_bytes,
                        u64 mem_reserved_peak) const
{
    MetricsSnapshot s;
    s.submitted = submitted.load(std::memory_order_relaxed);
    s.completed = completed.load(std::memory_order_relaxed);
    s.failed = failed.load(std::memory_order_relaxed);
    s.rejected = rejected.load(std::memory_order_relaxed);
    s.shed = shed.load(std::memory_order_relaxed);
    s.invalid = invalid.load(std::memory_order_relaxed);
    s.queue_depth = queue_depth.load(std::memory_order_relaxed);
    s.queue_peak = queue_peak.load(std::memory_order_relaxed);
    s.microbatches = microbatches.load(std::memory_order_relaxed);
    s.batched_pairs = batched_pairs.load(std::memory_order_relaxed);
    s.filter_batches = filter_batches.load(std::memory_order_relaxed);
    s.filter_batched_pairs =
        filter_batched_pairs.load(std::memory_order_relaxed);
    for (size_t l = 0; l < s.filter_batch_lanes.size(); ++l)
        s.filter_batch_lanes[l] =
            filter_batch_lanes[l].load(std::memory_order_relaxed);
    s.deadline_missed = deadline_missed.load(std::memory_order_relaxed);
    s.cancelled = cancelled.load(std::memory_order_relaxed);
    s.downgraded = downgraded.load(std::memory_order_relaxed);
    s.resource_rejected = resource_rejected.load(std::memory_order_relaxed);
    s.mem_budget_bytes = mem_budget_bytes;
    s.mem_reserved_bytes = mem_reserved_bytes;
    s.mem_reserved_peak = mem_reserved_peak;
    s.arena_peak_bytes = arena_peak_bytes.load(std::memory_order_relaxed);
    s.pool_workers = pool_workers;
    s.pool_executed = pool_executed;
    for (unsigned t = 0; t < kTierCount; ++t) {
        s.tier_hits[t] = tier_hits[t].load(std::memory_order_relaxed);
        s.tier_peak_bytes[t] =
            tier_peak_bytes[t].load(std::memory_order_relaxed);
        MetricsSnapshot::TierStats &ts = s.tiers[t];
        ts.attempts = tier_attempts[t].load(std::memory_order_relaxed);
        ts.cells = tier_cells[t].load(std::memory_order_relaxed);
        ts.work_us = tier_work_us[t].load(std::memory_order_relaxed);
        ts.setup_us = tier_setup_us[t].load(std::memory_order_relaxed);
        ts.kernel_us = tier_kernel_us[t].load(std::memory_order_relaxed);
        // GCUPS = 1e9 cells/s; cells per microsecond is 1e6 cells/s.
        // Pure-kernel time only: setup (mask/grid building, scratch
        // carving) is reported separately instead of diluting this.
        ts.gcups = ts.kernel_us > 0.0
                       ? static_cast<double>(ts.cells) / ts.kernel_us / 1e3
                       : 0.0;
        ts.queue_wait = summarize(queue_wait[t]);
        ts.service = summarize(service[t]);
    }
    const LatencySummary total = summarize(latency);
    s.latency_buckets = total.buckets;
    s.latency_count = total.count;
    s.latency_sum_us = total.sum_us;
    s.latency_mean_us = total.mean_us;
    s.latency_p50_us = total.p50_us;
    s.latency_p99_us = total.p99_us;
    return s;
}

namespace {

/** Emit {"count":..,"sum":..,"mean":..,"p50":..,"p99":..} for a summary. */
void
jsonSummary(std::ostringstream &os, const LatencySummary &s)
{
    os << "{\"count\":" << s.count << ",\"sum\":" << s.sum_us
       << ",\"mean\":" << s.mean_us << ",\"p50\":" << s.p50_us
       << ",\"p99\":" << s.p99_us << "}";
}

} // namespace

std::string
MetricsSnapshot::toJson() const
{
    std::ostringstream os;
    os << "{";
    os << "\"submitted\":" << submitted;
    os << ",\"completed\":" << completed;
    os << ",\"failed\":" << failed;
    os << ",\"rejected\":" << rejected;
    os << ",\"shed\":" << shed;
    os << ",\"invalid\":" << invalid;
    os << ",\"queue_depth\":" << queue_depth;
    os << ",\"queue_peak\":" << queue_peak;
    os << ",\"microbatches\":" << microbatches;
    os << ",\"batched_pairs\":" << batched_pairs;
    os << ",\"filter_batches\":" << filter_batches;
    os << ",\"filter_batched_pairs\":" << filter_batched_pairs;
    os << ",\"filter_batch_lanes\":[";
    for (size_t l = 0; l < filter_batch_lanes.size(); ++l)
        os << (l ? "," : "") << filter_batch_lanes[l];
    os << "]";
    os << ",\"deadline_missed\":" << deadline_missed;
    os << ",\"cancelled\":" << cancelled;
    os << ",\"downgraded\":" << downgraded;
    os << ",\"resource_rejected\":" << resource_rejected;
    os << ",\"memory\":{";
    os << "\"budget\":" << mem_budget_bytes;
    os << ",\"reserved\":" << mem_reserved_bytes;
    os << ",\"reserved_peak\":" << mem_reserved_peak;
    os << ",\"arena_peak\":" << arena_peak_bytes;
    os << "}";
    os << ",\"pool\":{";
    os << "\"workers\":" << pool_workers;
    os << ",\"executed\":" << pool_executed;
    os << "}";
    os << ",\"tiers\":{";
    for (unsigned t = 0; t < kTierCount; ++t) {
        if (t)
            os << ",";
        const TierStats &ts = tiers[t];
        os << "\"" << tierName(static_cast<Tier>(t)) << "\":{"
           << "\"hits\":" << tier_hits[t]
           << ",\"peak_bytes\":" << tier_peak_bytes[t]
           << ",\"attempts\":" << ts.attempts
           << ",\"cells\":" << ts.cells
           << ",\"work_us\":" << ts.work_us
           << ",\"setup_us\":" << ts.setup_us
           << ",\"kernel_us\":" << ts.kernel_us
           << ",\"gcups\":" << ts.gcups
           << ",\"queue_wait_us\":";
        jsonSummary(os, ts.queue_wait);
        os << ",\"service_us\":";
        jsonSummary(os, ts.service);
        os << "}";
    }
    os << "}";
    os << ",\"latency_us\":{";
    os << "\"count\":" << latency_count;
    os << ",\"sum\":" << latency_sum_us;
    os << ",\"mean\":" << latency_mean_us;
    os << ",\"p50\":" << latency_p50_us;
    os << ",\"p99\":" << latency_p99_us;
    os << ",\"log2_buckets\":[";
    // Trim trailing empty buckets so the array stays readable.
    size_t last = latency_buckets.size();
    while (last > 0 && latency_buckets[last - 1] == 0)
        --last;
    for (size_t b = 0; b < last; ++b) {
        if (b)
            os << ",";
        os << latency_buckets[b];
    }
    os << "]}";
    os << "}";
    return os.str();
}

} // namespace gmx::engine

#include "engine/metrics.hh"

#include <cmath>

#include "engine/exporter.hh"

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

// ------------------------------------------------------- field tables
//
// Every engine metric is one row below. The table order is the /vars key
// order and the /metrics family order.

using M = EngineMetrics;
using S = MetricsSnapshot;
using TS = MetricsSnapshot::TierStats;
constexpr auto kCounter = openmetrics::Type::Counter;
constexpr auto kGauge = openmetrics::Type::Gauge;

std::string
laneCount(unsigned i)
{
    return std::to_string(i + 1);
}

/** Filter groups by filled lanes: /vars array, /metrics `lanes` label. */
constexpr SlotLabel kLanes{"lanes", &laneCount, false};

/** The snapshot() arguments, for the rows the engine passes in. */
enum Arg : int { kWorkers, kExecuted, kBudget, kReserved, kReservedPeak };

constexpr Field<M, S, std::tuple_size_v<decltype(S::filter_batch_lanes)>>
    kFields[] = {
        {nullptr, "submitted", "gmx_requests_submitted", kCounter,
         &S::submitted, &M::submitted},
        {nullptr, "completed", "gmx_requests_completed", kCounter,
         &S::completed, &M::completed},
        {nullptr, "failed", "gmx_requests_failed", kCounter, &S::failed,
         &M::failed},
        {nullptr, "rejected", "gmx_requests_rejected", kCounter,
         &S::rejected, &M::rejected},
        {nullptr, "shed", "gmx_requests_shed", kCounter, &S::shed, &M::shed},
        {nullptr, "invalid", "gmx_requests_invalid", kCounter, &S::invalid,
         &M::invalid},
        {nullptr, "queue_depth", "gmx_queue_depth", kGauge, &S::queue_depth,
         &M::queue_depth},
        {nullptr, "queue_peak", "gmx_queue_peak", kGauge, &S::queue_peak,
         &M::queue_peak},
        {nullptr, "microbatches", "gmx_microbatches", kCounter,
         &S::microbatches, &M::microbatches},
        {nullptr, "batched_pairs", "gmx_batched_pairs", kCounter,
         &S::batched_pairs, &M::batched_pairs},
        {nullptr, "filter_batches", "gmx_filter_batches", kCounter,
         &S::filter_batches, &M::filter_batches},
        {nullptr, "filter_batched_pairs", "gmx_filter_batched_pairs",
         kCounter, &S::filter_batched_pairs, &M::filter_batched_pairs},
        {.group = nullptr,
         .key = "filter_batch_lanes",
         .family = "gmx_filter_batch_groups",
         .type = kCounter,
         .label = &kLanes,
         .slots = &S::filter_batch_lanes,
         .live_slots = &M::filter_batch_lanes},
        {nullptr, "deadline_missed", "gmx_requests_deadline_missed",
         kCounter, &S::deadline_missed, &M::deadline_missed},
        {nullptr, "cancelled", "gmx_requests_cancelled", kCounter,
         &S::cancelled, &M::cancelled},
        {nullptr, "downgraded", "gmx_requests_downgraded", kCounter,
         &S::downgraded, &M::downgraded},
        {nullptr, "resource_rejected", "gmx_requests_resource_rejected",
         kCounter, &S::resource_rejected, &M::resource_rejected},
        {"memory", "budget", "gmx_memory_budget_bytes", kGauge,
         &S::mem_budget_bytes, nullptr, kBudget},
        {"memory", "reserved", "gmx_memory_reserved_bytes", kGauge,
         &S::mem_reserved_bytes, nullptr, kReserved},
        {"memory", "reserved_peak", "gmx_memory_reserved_peak_bytes", kGauge,
         &S::mem_reserved_peak, nullptr, kReservedPeak},
        {"memory", "arena_peak", "gmx_arena_peak_bytes", kGauge,
         &S::arena_peak_bytes, &M::arena_peak_bytes},
        {"pool", "workers", "gmx_pool_workers", kGauge, &S::pool_workers,
         nullptr, kWorkers},
        {"pool", "executed", "gmx_pool_tasks_executed", kCounter,
         &S::pool_executed, nullptr, kExecuted},
};

/**
 * One per-tier family: a key of each tier's /vars object, a `tier`-
 * labelled /metrics family (null: /vars only). The value is tiers[t].*
 * @p stat or (*@p flat)[t]; a row without @p live is derived from the
 * rows before it.
 */
template <class T>
struct TierField
{
    const char *key;
    const char *family;
    openmetrics::Type type;
    std::array<std::atomic<T>, kTierCount> M::*live;
    T TS::*stat = nullptr;
    std::array<T, kTierCount> S::*flat = nullptr;
    double scale = 1.0; //!< /metrics value = value * scale (us -> s)
    T (*derive)(const TS &) = nullptr;

    decltype(auto)
    at(auto &s, unsigned t) const
    {
        return flat ? (s.*flat)[t] : s.tiers[t].*stat;
    }
};

/** 1e9 cells/s over the kernel phase only, so setup cannot dilute it. */
double
gcups(const TS &ts)
{
    return ts.kernel_us > 0.0
               ? static_cast<double>(ts.cells) / ts.kernel_us / 1e3
               : 0.0;
}

constexpr TierField<u64> kTierCounts[] = {
    {"hits", "gmx_tier_completed", kCounter, &M::tier_hits, nullptr,
     &S::tier_hits},
    {"peak_bytes", "gmx_tier_peak_bytes", kGauge, &M::tier_peak_bytes,
     nullptr, &S::tier_peak_bytes},
    {"attempts", "gmx_tier_attempts", kCounter, &M::tier_attempts,
     &TS::attempts},
    {"cells", "gmx_tier_cells", kCounter, &M::tier_cells, &TS::cells},
};

// Kernel work split by phase: setup is mask/grid building and scratch
// carving, kernel is the DP loop plus traceback.
constexpr TierField<double> kTierTimes[] = {
    {"work_us", nullptr, kCounter, &M::tier_work_us, &TS::work_us},
    {"setup_us", "gmx_tier_setup_seconds", kCounter, &M::tier_setup_us,
     &TS::setup_us, nullptr, 1e-6},
    {"kernel_us", "gmx_tier_kernel_seconds", kCounter, &M::tier_kernel_us,
     &TS::kernel_us, nullptr, 1e-6},
    {"gcups", "gmx_tier_gcups", kGauge, nullptr, &TS::gcups, nullptr, 1.0,
     &gcups},
};

/** Visit every per-tier scalar row, in table order. */
void
eachTierField(auto fn)
{
    for (const auto &f : kTierCounts)
        fn(f);
    for (const auto &f : kTierTimes)
        fn(f);
}

/**
 * A latency histogram: per tier (@p tier_live into tiers[t].*@p stat,
 * inside each tier's /vars object) or one (@p live into @p snap, with
 * its log2 buckets listed on /vars).
 */
struct HistogramField
{
    const char *key;
    const char *family;
    std::array<LatencyHistogram, kTierCount> M::*tier_live;
    LatencySummary TS::*stat;
    LatencyHistogram M::*live = nullptr;
    LatencySummary S::*snap = nullptr;
};

constexpr HistogramField kTierHistograms[] = {
    {"queue_wait_us", "gmx_queue_wait_seconds", &M::queue_wait,
     &TS::queue_wait},
    {"service_us", "gmx_service_time_seconds", &M::service, &TS::service},
};

constexpr HistogramField kHistograms[] = {
    {"latency_us", "gmx_request_latency_seconds", nullptr, nullptr,
     &M::latency, &S::latency},
};

void
writeSummary(JsonWriter &w, const LatencySummary &s, bool buckets)
{
    w.beginObject();
    w.key("count").value(s.count);
    w.key("sum").value(s.sum_us);
    w.key("mean").value(s.mean_us);
    w.key("p50").value(s.p50_us);
    w.key("p99").value(s.p99_us);
    if (buckets) {
        size_t last = s.buckets.size();
        while (last > 0 && s.buckets[last - 1] == 0)
            --last;
        w.key("log2_buckets").beginArray();
        for (size_t b = 0; b < last; ++b)
            w.value(s.buckets[b]);
        w.endArray();
    }
    w.endObject();
}

const char *
tierLabel(unsigned t)
{
    return tierName(static_cast<Tier>(t));
}

} // namespace

MetricsSnapshot
EngineMetrics::snapshot(u64 pool_workers, u64 pool_executed,
                        u64 mem_budget_bytes, u64 mem_reserved_bytes,
                        u64 mem_reserved_peak) const
{
    MetricsSnapshot s;
    const u64 args[] = {pool_workers, pool_executed, mem_budget_bytes,
                        mem_reserved_bytes, mem_reserved_peak};
    copyFields(kFields, *this, s, args);
    for (unsigned t = 0; t < kTierCount; ++t) {
        eachTierField([&](const auto &f) {
            f.at(s, t) = f.live
                             ? (this->*f.live)[t].load(
                                   std::memory_order_relaxed)
                             : f.derive(s.tiers[t]);
        });
        for (const auto &h : kTierHistograms)
            s.tiers[t].*h.stat = summarize((this->*h.tier_live)[t]);
    }
    for (const auto &h : kHistograms)
        s.*h.snap = summarize(this->*h.live);
    return s;
}

std::string
MetricsSnapshot::toJson() const
{
    JsonWriter w;
    w.beginObject();
    writeFields(w, kFields, *this);
    w.key("tiers").beginObject();
    for (unsigned t = 0; t < kTierCount; ++t) {
        w.key(tierLabel(t)).beginObject();
        eachTierField(
            [&](const auto &f) { w.key(f.key).value(f.at(*this, t)); });
        for (const auto &h : kTierHistograms) {
            w.key(h.key);
            writeSummary(w, tiers[t].*h.stat, false);
        }
        w.endObject();
    }
    w.endObject();
    for (const auto &h : kHistograms) {
        w.key(h.key);
        writeSummary(w, this->*h.snap, true);
    }
    w.endObject();
    return w.str();
}

std::string
renderOpenMetrics(const MetricsSnapshot &snap)
{
    openmetrics::Writer w;
    writeFields(w, kFields, snap);
    eachTierField([&](const auto &f) {
        if (!f.family)
            return;
        w.family(f.family, f.type);
        for (unsigned t = 0; t < kTierCount; ++t) {
            const auto v = f.at(snap, t);
            if constexpr (std::is_floating_point_v<decltype(v)>)
                w.sample(v * f.scale, "tier", tierLabel(t));
            else
                w.sample(v, "tier", tierLabel(t));
        }
    });
    for (const auto &h : kTierHistograms) {
        w.family(h.family, openmetrics::Type::Histogram);
        for (unsigned t = 0; t < kTierCount; ++t)
            w.histogram(snap.tiers[t].*h.stat, "tier", tierLabel(t));
    }
    for (const auto &h : kHistograms) {
        w.family(h.family, openmetrics::Type::Histogram);
        w.histogram(snap.*h.snap);
    }
    return w.str() + "# EOF\n";
}

} // namespace gmx::engine

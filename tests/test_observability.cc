/**
 * @file
 * Observability-layer tests: the trace recorder, kernel-work counters,
 * split latency histograms, the OpenMetrics exporter — and the two
 * memory-estimator regressions that motivated this layer (a budget gate
 * is only as good as its closed forms).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "align/nw.hh"
#include "common/status.hh"
#include "engine/budget.hh"
#include "engine/engine.hh"
#include "engine/exporter.hh"
#include "engine/metrics.hh"
#include "engine/trace.hh"
#include "sequence/generator.hh"
#include "test_util.hh"

namespace gmx::engine {
namespace {

using Outcome = Engine::AlignOutcome;

// ---------------------------------------------------------------------------
// Budget-estimator regressions.
// ---------------------------------------------------------------------------

TEST(BudgetEstimators, HirschbergBytesCoverTextRowsWhenPatternIsShort)
{
    // Regression: the estimator used to size the DP rows over
    // min(n, m) + 1, but hirschberg.cc's lastRow always allocates
    // row(m + 1) over the TEXT. A short-pattern/long-text pair was
    // under-estimated by orders of magnitude, so the budget gate admitted
    // requests whose real footprint blew the cap.
    const size_t n = 10;      // pattern
    const size_t m = 100'000; // text
    const size_t rows = 2 * (m + 1) * sizeof(i64); // what the kernel allocates
    EXPECT_GE(hirschbergBytes(n, m), rows);

    // And it may not balloon either: rows + O(n + m) op buffer.
    EXPECT_LE(hirschbergBytes(n, m), rows + 2 * (n + m));

    // Symmetric shape must still be covered.
    EXPECT_GE(hirschbergBytes(m, m), 2 * (m + 1) * sizeof(i64));
}

TEST(BudgetEstimators, CascadeAutoFilterKKeepsTheSkewTerm)
{
    // The closed form is max(8, longer/16, skew + 4); all three regimes.
    EXPECT_EQ(cascadeAutoFilterK(100, 100), 8);       // small, balanced
    EXPECT_EQ(cascadeAutoFilterK(3200, 3200), 200);   // longer/16 wins
    EXPECT_EQ(cascadeAutoFilterK(100, 2000), 1904);   // skew + 4 wins
    EXPECT_EQ(cascadeAutoFilterK(2000, 100), 1904);   // symmetric in skew
}

TEST(BudgetEstimators, DistanceOnlyBytesSizeFilterFromTheSharedClosedForm)
{
    // Regression: the estimator used max(8, longer/16) for the Bitap
    // filter budget and dropped the skew + 4 term the cascade actually
    // routes with, so skewed pairs under-reserved the filter's (k+1)
    // state vectors.
    const size_t n = 256, m = 8192;
    const unsigned tile = 32;
    const size_t k =
        static_cast<size_t>(cascadeAutoFilterK(n, m)) + 1; // 7940 + 1
    const size_t filter = 2 * k * ((n + 63) / 64) * sizeof(u64);
    EXPECT_GE(distanceOnlyBytes(n, m, tile), filter);

    // The pre-fix closed form dropped the skew term: k would have been
    // max(8, 8192/16) + 1 = 513, an order of magnitude under what the
    // cascade actually allocates for this pair.
    const size_t k_noskew = std::max<size_t>(8, m / 16) + 1;
    const size_t filter_noskew = 2 * k_noskew * ((n + 63) / 64) * sizeof(u64);
    EXPECT_GT(filter, 10 * filter_noskew);
    EXPECT_GT(distanceOnlyBytes(n, m, tile), filter_noskew);
}

// ---------------------------------------------------------------------------
// LatencyHistogram robustness.
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, ClampsNonFiniteAndNegativeDurations)
{
    LatencyHistogram h;
    h.record(std::numeric_limits<double>::quiet_NaN());
    h.record(-1.0);
    h.record(std::numeric_limits<double>::infinity());
    h.record(1e9); // ~31 years, far past the last bucket
    h.record(0.001); // 1000 us, a sane sample

    const auto buckets = h.buckets();
    u64 total = 0;
    for (u64 b : buckets)
        total += b;
    EXPECT_EQ(total, 5u) << "every sample lands in exactly one bucket";

    // NaN and negative clamp to bucket 0; inf and oversized to the last.
    EXPECT_EQ(buckets.front(), 2u);
    EXPECT_EQ(buckets.back(), 2u);

    // The running sum stays finite (clamped samples contribute their
    // clamped value).
    EXPECT_TRUE(std::isfinite(h.sumUs()));
    EXPECT_GE(h.sumUs(), 1000.0);
}

TEST(LatencyHistogram, BucketsArePowersOfTwoMicroseconds)
{
    LatencyHistogram h;
    h.record(0.5e-6);  // 0.5 us -> bucket 0: [0, 1us)
    h.record(1.5e-6);  // 1.5 us -> bucket 1: [1, 2us)
    h.record(3e-6);    // 3 us   -> bucket 2: [2, 4us)
    h.record(1000e-6); // 1000us -> bucket 10: [512, 1024us)
    const auto b = h.buckets();
    EXPECT_EQ(b[0], 1u);
    EXPECT_EQ(b[1], 1u);
    EXPECT_EQ(b[2], 1u);
    EXPECT_EQ(b[10], 1u);
}

// ---------------------------------------------------------------------------
// NW kernel counters (the one aligner that predated KernelCounts).
// ---------------------------------------------------------------------------

TEST(KernelCounts, NwDistanceAndAlignChargeCells)
{
    seq::Generator gen(7);
    const auto pair = gen.pair(100, 0.05);
    const u64 expect =
        static_cast<u64>(pair.pattern.size()) * pair.text.size();

    gmx::KernelCounts c;
    gmx::KernelContext ctx(gmx::CancelToken{}, &c);
    align::nwDistance(pair.pattern, pair.text, ctx);
    EXPECT_EQ(c.cells, expect);
    EXPECT_GT(c.alu, 0u);

    gmx::KernelCounts ca;
    gmx::KernelContext ctx_a(gmx::CancelToken{}, &ca);
    const auto res = align::nwAlign(pair.pattern, pair.text, ctx_a);
    EXPECT_EQ(ca.cells, expect);
    EXPECT_TRUE(res.has_cigar);
    EXPECT_GT(ca.stores, ca.cells) << "traceback stores the direction matrix";
}

// ---------------------------------------------------------------------------
// TraceRecorder unit behaviour.
// ---------------------------------------------------------------------------

TEST(TraceRecorder, DeterministicSampling)
{
    TraceRecorder every(16, 1);
    EXPECT_TRUE(every.sampled(1));
    EXPECT_TRUE(every.sampled(2));

    TraceRecorder third(16, 3);
    EXPECT_FALSE(third.sampled(1));
    EXPECT_FALSE(third.sampled(2));
    EXPECT_TRUE(third.sampled(3));
    EXPECT_TRUE(third.sampled(6));

    TraceRecorder off(0, 1);
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.sampled(1));
    off.record(1, TraceEvent::Enqueue, 0); // must be a harmless no-op
    EXPECT_EQ(off.recorded(), 0u);
}

TEST(TraceRecorder, RingWrapKeepsTheNewestSpansAndCountsDrops)
{
    TraceRecorder ring(4, 1);
    for (u64 i = 1; i <= 10; ++i)
        ring.record(i, TraceEvent::Enqueue, static_cast<i64>(i));
    EXPECT_EQ(ring.recorded(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);

    const auto spans = ring.spans();
    ASSERT_EQ(spans.size(), 4u);
    // Oldest surviving first: ids 7..10.
    for (size_t i = 0; i < spans.size(); ++i)
        EXPECT_EQ(spans[i].id, 7 + i);
}

TEST(TraceRecorder, SpansRoundTripTierCodeAndDetail)
{
    TraceRecorder ring(8, 1);
    ring.record(5, TraceEvent::Enqueue, 100);
    ring.recordTier(5, TraceEvent::TierAttempt, 200, Tier::Banded,
                    StatusCode::Ok, 4096);
    ring.recordTier(5, TraceEvent::Complete, 300, Tier::Banded,
                    StatusCode::DeadlineExceeded, 4096);

    const auto spans = ring.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].event, TraceEvent::Enqueue);
    EXPECT_FALSE(spans[0].has_tier);
    EXPECT_EQ(spans[1].event, TraceEvent::TierAttempt);
    ASSERT_TRUE(spans[1].has_tier);
    EXPECT_EQ(spans[1].tier, Tier::Banded);
    EXPECT_EQ(spans[1].detail, 4096u);
    EXPECT_EQ(spans[2].code, StatusCode::DeadlineExceeded);
    EXPECT_EQ(spans[2].t_us, 300);

    const std::string json = ring.toJson();
    EXPECT_NE(json.find("\"recorded\":3"), std::string::npos);
    EXPECT_NE(json.find("\"tier\":\"banded\""), std::string::npos);
    EXPECT_NE(json.find("\"code\":\"DEADLINE_EXCEEDED\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: engine traffic leaves ordered spans and reconciled counters.
// ---------------------------------------------------------------------------

/** Index of a lifecycle event in pipeline order. */
int
eventRank(TraceEvent e)
{
    return static_cast<int>(e);
}

TEST(EngineObservability, SpansArriveInPipelineOrderPerRequest)
{
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.trace_capacity = 4096;
    cfg.trace_sample_every = 1;
    Engine engine(cfg);

    seq::Generator gen(31);
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 12; ++i)
        pairs.push_back(gen.pair(200, 0.05));
    const auto results = engine.alignAll(pairs, true);
    for (const auto &r : results)
        ASSERT_TRUE(r.ok()) << r.status().toString();

    std::map<u64, std::vector<TraceSpan>> by_id;
    for (const auto &s : engine.trace().spans())
        by_id[s.id].push_back(s);
    ASSERT_EQ(by_id.size(), pairs.size());

    for (const auto &[id, spans] : by_id) {
        // Every traced request walks the full pipeline: enqueue, dispatch,
        // admission, at least one tier attempt, completion.
        ASSERT_GE(spans.size(), 5u) << "request " << id;
        EXPECT_EQ(spans.front().event, TraceEvent::Enqueue);
        EXPECT_EQ(spans.back().event, TraceEvent::Complete);
        EXPECT_EQ(spans.back().code, StatusCode::Ok);
        for (size_t i = 1; i < spans.size(); ++i) {
            EXPECT_LE(eventRank(spans[i - 1].event), eventRank(spans[i].event))
                << "request " << id << " span " << i;
            EXPECT_LE(spans[i - 1].t_us, spans[i].t_us)
                << "request " << id << " span " << i
                << ": timestamps must be monotonic";
        }
        // Tier attempts carry the cells they computed.
        for (const auto &s : spans) {
            if (s.event == TraceEvent::TierAttempt) {
                EXPECT_TRUE(s.has_tier);
                EXPECT_GT(s.detail, 0u) << "attempt with zero cells";
            }
        }
    }
}

TEST(EngineObservability, SamplingTracesEveryNthRequestOnly)
{
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.trace_sample_every = 4;
    Engine engine(cfg);

    seq::Generator gen(37);
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 16; ++i)
        pairs.push_back(gen.pair(100, 0.02));
    engine.alignAll(pairs, false);

    for (const auto &s : engine.trace().spans())
        EXPECT_EQ(s.id % 4, 0u) << "unsampled request leaked into the ring";
    EXPECT_GT(engine.trace().recorded(), 0u);
}

TEST(EngineObservability, CountersReconcileAndTiersAccountTheWork)
{
    EngineConfig cfg;
    cfg.workers = 2;
    Engine engine(cfg);

    seq::Generator gen(41);
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 20; ++i)
        pairs.push_back(gen.pair(300, i % 2 ? 0.02 : 0.25));
    const auto results = engine.alignAll(pairs, true);
    for (const auto &r : results)
        ASSERT_TRUE(r.ok());

    const auto snap = engine.metrics();
    EXPECT_EQ(snap.submitted, pairs.size());
    EXPECT_EQ(snap.completed + snap.failed + snap.shed, snap.submitted);
    EXPECT_EQ(snap.completed, pairs.size());

    u64 hits = 0, attempts = 0, cells = 0, qwait = 0, service = 0;
    double work_us = 0;
    for (const auto &t : snap.tiers) {
        attempts += t.attempts;
        cells += t.cells;
        work_us += t.work_us;
        qwait += t.queue_wait.count;
        service += t.service.count;
    }
    for (u64 h : snap.tier_hits)
        hits += h;

    // Every cascade-routed completion lands in exactly one tier, and its
    // split timings land with it.
    EXPECT_EQ(hits, snap.completed);
    EXPECT_EQ(qwait, snap.completed);
    EXPECT_EQ(service, snap.completed);
    EXPECT_EQ(snap.latency.count, snap.completed);

    // Escalations charge their failed attempts: attempts >= completions,
    // and real kernel work was accounted.
    EXPECT_GE(attempts, snap.completed);
    EXPECT_GT(cells, 0u);
    EXPECT_GT(work_us, 0.0);
    for (const auto &t : snap.tiers) {
        // The phase split partitions the attempt wall-clock (timer
        // overhead and rounding make it slightly smaller, never larger),
        // and GCUPS is defined over the pure-kernel phase only.
        EXPECT_LE(t.setup_us + t.kernel_us, t.work_us * 1.01 + 1.0);
        if (t.attempts > 0) {
            EXPECT_GT(t.kernel_us, 0.0);
        }
        if (t.kernel_us > 0) {
            EXPECT_NEAR(t.gcups, t.cells / t.kernel_us / 1e3,
                        1e-9 + t.gcups * 1e-9);
        }
    }
    EXPECT_GT(snap.arena_peak_bytes, 0u);
}

TEST(EngineObservability, ShedRequestsAreCountedExactlyOnceAndTraced)
{
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 1;
    cfg.backpressure = Backpressure::ShedOldest;
    cfg.microbatch_max = 1;
    Engine engine(cfg);

    // A gate the aligner blocks on, so the queue genuinely backs up.
    auto release = std::make_shared<std::promise<void>>();
    std::shared_future<void> gate = release->get_future().share();
    align::PairAligner blocker = [gate](const seq::SequencePair &) {
        gate.wait();
        align::AlignResult r;
        r.distance = 0;
        return r;
    };

    seq::Generator gen(43);
    std::vector<std::future<Outcome>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(engine.submit(gen.pair(64, 0.0), blocker));
    release->set_value();
    engine.drain();

    u64 overloaded = 0, ok = 0;
    for (auto &f : futures) {
        auto res = f.get();
        if (res.ok())
            ++ok;
        else if (res.code() == StatusCode::Overloaded)
            ++overloaded;
    }
    const auto snap = engine.metrics();
    EXPECT_EQ(snap.submitted, 8u);
    EXPECT_EQ(snap.shed, overloaded);
    EXPECT_EQ(snap.completed, ok);
    // The reconciliation invariant: everything accepted is accounted for
    // exactly once.
    EXPECT_EQ(snap.completed + snap.failed + snap.shed, snap.submitted);

    // Every shed victim still gets a Complete span with the Overloaded
    // code — its timeline ends, it does not just vanish from the trace.
    u64 shed_spans = 0;
    for (const auto &s : engine.trace().spans())
        if (s.event == TraceEvent::Complete &&
            s.code == StatusCode::Overloaded)
            ++shed_spans;
    EXPECT_EQ(shed_spans, snap.shed);
}

TEST(EngineObservability, SlowRequestThresholdLogsOneWarnLine)
{
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.slow_request_threshold = std::chrono::nanoseconds(1); // everything
    Engine engine(cfg);

    seq::Generator gen(47);
    testing::internal::CaptureStderr();
    auto f = engine.submit(gen.pair(100, 0.05), false);
    ASSERT_TRUE(f.get().ok());
    engine.drain();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("slow request"), std::string::npos) << err;
    EXPECT_NE(err.find("queue_wait="), std::string::npos);
    EXPECT_NE(err.find("service="), std::string::npos);
    EXPECT_NE(err.find("tier="), std::string::npos);
}

// ---------------------------------------------------------------------------
// OpenMetrics exporter.
// ---------------------------------------------------------------------------

/** Extract the value of a single-sample series like "name 12". */
double
seriesValue(const std::string &text, const std::string &name)
{
    const auto pos = text.find("\n" + name + " ");
    EXPECT_NE(pos, std::string::npos) << "missing series " << name;
    if (pos == std::string::npos)
        return -1;
    return std::stod(text.substr(pos + name.size() + 2));
}

TEST(Exporter, RendersValidOpenMetricsText)
{
    EngineConfig cfg;
    cfg.workers = 2;
    Engine engine(cfg);
    seq::Generator gen(53);
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 10; ++i)
        pairs.push_back(gen.pair(150, 0.05));
    engine.alignAll(pairs, true);

    const auto snap = engine.metrics();
    const std::string text = renderOpenMetrics(snap);

    // Structural requirements of the OpenMetrics text format.
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
    EXPECT_NE(text.find("# TYPE gmx_requests_submitted counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE gmx_request_latency_seconds histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("le=\"+Inf\"}"), std::string::npos);
    EXPECT_NE(text.find("gmx_tier_gcups{tier=\"banded\"}"),
              std::string::npos);
    EXPECT_NE(text.find("gmx_queue_wait_seconds_bucket{tier=\""),
              std::string::npos);

    // Values round-trip from the snapshot.
    EXPECT_EQ(seriesValue(text, "gmx_requests_submitted_total"),
              static_cast<double>(snap.submitted));
    EXPECT_EQ(seriesValue(text, "gmx_requests_completed_total"),
              static_cast<double>(snap.completed));
    EXPECT_EQ(seriesValue(text, "gmx_pool_workers"),
              static_cast<double>(snap.pool_workers));

    // Histogram buckets are cumulative: the +Inf bucket of the request
    // latency histogram equals its _count.
    const auto inf = text.find(
        "gmx_request_latency_seconds_bucket{le=\"+Inf\"} ");
    ASSERT_NE(inf, std::string::npos);
    const u64 inf_count = std::stoull(
        text.substr(inf + std::string("gmx_request_latency_seconds_bucket"
                                      "{le=\"+Inf\"} ")
                              .size()));
    EXPECT_EQ(inf_count, snap.latency.count);

    // Every line is either a comment or "name[{labels}] value".
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        if (line[0] == '#')
            continue;
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
    }
}

TEST(Exporter, LatencySumIsExportedExactlyNotReconstructed)
{
    // Regression: the exporter used to reconstruct `_sum` as
    // mean_us * count. The division-then-multiplication round-trip is
    // lossy, and these three samples are chosen so the loss crosses a
    // %.9g rendering boundary — the reconstruction prints a different
    // string than the true sum, so this test fails against the old code.
    EngineMetrics m;
    const double samples_s[] = {5.0000005e-6, 3e-7, 1e-4};
    double expect_us = 0.0;
    for (double s : samples_s) {
        m.latency.record(s);
        expect_us += s * 1e6; // the same fp operations record() performs
    }

    // The histogram and the snapshot both carry the exact running sum.
    EXPECT_EQ(m.latency.sumUs(), expect_us);
    const auto snap = m.snapshot(/*pool_workers=*/1, 0);
    EXPECT_EQ(snap.latency.sum_us, expect_us);
    EXPECT_EQ(snap.latency.count, 3u);

    // The old reconstruction provably differs from the true sum, both as
    // doubles and — the part a scraper sees — at the exporter's %.9g.
    const double recon_us =
        snap.latency.mean_us * static_cast<double>(snap.latency.count);
    EXPECT_NE(recon_us, expect_us);
    const auto fmt9 = [](double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        return std::string(buf);
    };
    ASSERT_NE(fmt9(expect_us * 1e-6), fmt9(recon_us * 1e-6))
        << "samples no longer discriminate sum from mean*count";

    const std::string text = renderOpenMetrics(snap);
    EXPECT_NE(text.find("gmx_request_latency_seconds_sum " +
                        fmt9(expect_us * 1e-6) + "\n"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("gmx_request_latency_seconds_sum " +
                        fmt9(recon_us * 1e-6) + "\n"),
              std::string::npos)
        << "exporter still reconstructs _sum from the mean";
}

TEST(Exporter, EmptyEngineStillRendersCompleteFamilies)
{
    EngineConfig cfg;
    cfg.workers = 1;
    Engine engine(cfg);
    const std::string text = renderOpenMetrics(engine.metrics());
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
    EXPECT_EQ(seriesValue(text, "gmx_requests_submitted_total"), 0.0);
    // All-zero histograms still emit their +Inf bucket, sum and count.
    EXPECT_NE(text.find("gmx_request_latency_seconds_bucket{le=\"+Inf\"} 0"),
              std::string::npos);
    EXPECT_NE(text.find("gmx_request_latency_seconds_count 0"),
              std::string::npos);
}

TEST(Exporter, IntegerGaugesRenderAsExactIntegers)
{
    // Byte gauges past 1e9 must scrape as the integer the engine holds,
    // not a rounded float: 2^64 - 1 and 2^53 + 1 have no exact double.
    EngineMetrics m;
    const MetricsSnapshot snap =
        m.snapshot(/*pool_workers=*/1, /*pool_executed=*/0,
                   /*mem_budget_bytes=*/18446744073709551615ull,
                   /*mem_reserved_bytes=*/9007199254740993ull,
                   /*mem_reserved_peak=*/1234567891ull);
    const std::string text = renderOpenMetrics(snap);
    for (const char *line :
         {"\ngmx_memory_budget_bytes 18446744073709551615\n",
          "\ngmx_memory_reserved_bytes 9007199254740993\n",
          "\ngmx_memory_reserved_peak_bytes 1234567891\n",
          "\ngmx_pool_workers 1\n"})
        EXPECT_NE(text.find(line), std::string::npos) << line;
}

TEST(Exporter, VarsDoublesReadBackExactly)
{
    // A cumulative microsecond total must survive /vars digit for digit:
    // a dashboard differencing two scrapes needs more than six digits.
    MetricsSnapshot snap;
    snap.tiers[0].kernel_us = 3160493.9;
    snap.tiers[0].setup_us = 0.1 + 0.2;
    snap.latency.sum_us = 123456789012.34567;
    const std::string json = snap.toJson();
    EXPECT_NE(json.find("\"kernel_us\":3160493.9,"), std::string::npos)
        << json;
    // The first occurrence of @p key at or after @p from, read back.
    const auto valueAt = [&](const std::string &key, size_t from) {
        const size_t at = json.find("\"" + key + "\":", from);
        EXPECT_NE(at, std::string::npos) << key;
        return std::stod(json.substr(at + key.size() + 3));
    };
    EXPECT_EQ(valueAt("setup_us", 0), 0.1 + 0.2);
    EXPECT_EQ(valueAt("sum", json.find("\"latency_us\":")),
              123456789012.34567);
}

// ------------------------------------------------- golden exposition
//
// Pinned renders of a hand-built snapshot. Each metric is a row of the
// engine's field table; dropping, renaming or retyping a row changes
// these strings.

LatencySummary
goldenSummary(u64 seed)
{
    LatencySummary l;
    l.buckets.assign(LatencyHistogram::kBuckets, 0);
    l.buckets[0] = seed;
    l.buckets[2] = seed + 1;
    l.buckets[5] = seed + 2;
    l.count = 3 * seed + 3;
    l.sum_us = 1000.125 * static_cast<double>(seed);
    l.mean_us = l.sum_us / static_cast<double>(l.count);
    l.p50_us = 4.0 * static_cast<double>(seed);
    l.p99_us = 32.0 * static_cast<double>(seed);
    return l;
}

/**
 * A snapshot with a distinct non-zero value in every field; tiers 0 and
 * 2 carry histograms. Large byte counts pin the exact integer gauges.
 */
MetricsSnapshot
goldenEngineSnapshot()
{
    MetricsSnapshot s;
    u64 v = 1;
    for (u64 *f : {&s.submitted, &s.completed, &s.failed, &s.rejected,
                   &s.shed, &s.invalid, &s.queue_depth, &s.queue_peak,
                   &s.microbatches, &s.batched_pairs, &s.filter_batches,
                   &s.filter_batched_pairs, &s.deadline_missed,
                   &s.cancelled, &s.downgraded, &s.resource_rejected,
                   &s.mem_reserved_peak, &s.arena_peak_bytes,
                   &s.pool_workers, &s.pool_executed, &s.pool_steals})
        *f = v++;
    for (u64 &l : s.filter_batch_lanes)
        l = v++;
    s.mem_budget_bytes = 4294967296ull;
    s.mem_reserved_bytes = 1234567891ull;
    for (unsigned t = 0; t < kTierCount; ++t) {
        MetricsSnapshot::TierStats &ts = s.tiers[t];
        s.tier_hits[t] = v++;
        s.tier_peak_bytes[t] = 1000000000ull * v++;
        ts.attempts = v++;
        ts.cells = v++;
        ts.work_us = 1234.5625 * static_cast<double>(v++);
        ts.setup_us = 0.0001220703125 * static_cast<double>(v++);
        ts.kernel_us = 98765.4375 * static_cast<double>(v++);
        ts.gcups = 0.25 * static_cast<double>(v++);
        if (t == 0 || t == 2) {
            ts.queue_wait = goldenSummary(v++);
            ts.service = goldenSummary(v++);
        }
    }
    s.latency = goldenSummary(v++);
    return s;
}

const char *const kGoldenEngineJson =
    R"js({"submitted":1,"completed":2,"failed":3,"rejected":4,"shed":5,)js"
    R"js("invalid":6,"queue_depth":7,"queue_peak":8,"microbatches":9,)js"
    R"js("batched_pairs":10,"filter_batches":11,"filter_batched_pairs":12,)js"
    R"js("filter_batch_lanes":[22,23,24,25],"deadline_missed":13,)js"
    R"js("cancelled":14,"downgraded":15,"resource_rejected":16,)js"
    R"js("memory":{"budget":4294967296,"reserved":1234567891,)js"
    R"js("reserved_peak":17,"arena_peak":18},"pool":{"workers":19,)js"
    R"js("executed":20},"tiers":{"filter":{"hits":26,)js"
    R"js("peak_bytes":27000000000,"attempts":28,"cells":29,)js"
    R"js("work_us":37036.875,"setup_us":0.0037841796875,)js"
    R"js("kernel_us":3160494,"gcups":8.25,"queue_wait_us":{"count":105,)js"
    R"js("sum":34004.25,"mean":323.85,"p50":136,"p99":1088},)js"
    R"js("service_us":{"count":108,"sum":35004.375,)js"
    R"js("mean":324.1145833333333,"p50":140,"p99":1120}},)js"
    R"js("banded":{"hits":36,"peak_bytes":37000000000,"attempts":38,)js"
    R"js("cells":39,"work_us":49382.5,"setup_us":0.0050048828125,)js"
    R"js("kernel_us":4148148.375,"gcups":10.75,"queue_wait_us":{"count":0,)js"
    R"js("sum":0,"mean":0,"p50":0,"p99":0},"service_us":{"count":0,"sum":0,)js"
    R"js("mean":0,"p50":0,"p99":0}},"full":{"hits":44,)js"
    R"js("peak_bytes":45000000000,"attempts":46,"cells":47,"work_us":59259,)js"
    R"js("setup_us":0.0059814453125,"kernel_us":4938271.875,"gcups":12.75,)js"
    R"js("queue_wait_us":{"count":159,"sum":52006.5,)js"
    R"js("mean":327.08490566037733,"p50":208,"p99":1664},)js"
    R"js("service_us":{"count":162,"sum":53006.625,)js"
    R"js("mean":327.2013888888889,"p50":212,"p99":1696}},)js"
    R"js("downgraded":{"hits":54,"peak_bytes":55000000000,"attempts":56,)js"
    R"js("cells":57,"work_us":71604.625,"setup_us":0.0072021484375,)js"
    R"js("kernel_us":5925926.25,"gcups":15.25,"queue_wait_us":{"count":0,)js"
    R"js("sum":0,"mean":0,"p50":0,"p99":0},"service_us":{"count":0,"sum":0,)js"
    R"js("mean":0,"p50":0,"p99":0}},"streamed":{"hits":62,)js"
    R"js("peak_bytes":63000000000,"attempts":64,"cells":65,)js"
    R"js("work_us":81481.125,"setup_us":0.0081787109375,)js"
    R"js("kernel_us":6716049.75,"gcups":17.25,"queue_wait_us":{"count":0,)js"
    R"js("sum":0,"mean":0,"p50":0,"p99":0},"service_us":{"count":0,"sum":0,)js"
    R"js("mean":0,"p50":0,"p99":0}}},"latency_us":{"count":213,)js"
    R"js("sum":70008.75,"mean":328.67957746478874,"p50":280,"p99":2240,)js"
    R"js("log2_buckets":[70,0,71,0,0,72]}})js";

const char *const kGoldenEngineOpenMetrics = R"om(
# TYPE gmx_requests_submitted counter
gmx_requests_submitted_total 1
# TYPE gmx_requests_completed counter
gmx_requests_completed_total 2
# TYPE gmx_requests_failed counter
gmx_requests_failed_total 3
# TYPE gmx_requests_rejected counter
gmx_requests_rejected_total 4
# TYPE gmx_requests_shed counter
gmx_requests_shed_total 5
# TYPE gmx_requests_invalid counter
gmx_requests_invalid_total 6
# TYPE gmx_requests_deadline_missed counter
gmx_requests_deadline_missed_total 13
# TYPE gmx_requests_cancelled counter
gmx_requests_cancelled_total 14
# TYPE gmx_requests_downgraded counter
gmx_requests_downgraded_total 15
# TYPE gmx_requests_resource_rejected counter
gmx_requests_resource_rejected_total 16
# TYPE gmx_microbatches counter
gmx_microbatches_total 9
# TYPE gmx_batched_pairs counter
gmx_batched_pairs_total 10
# TYPE gmx_filter_batches counter
gmx_filter_batches_total 11
# TYPE gmx_filter_batched_pairs counter
gmx_filter_batched_pairs_total 12
# TYPE gmx_filter_batch_groups counter
gmx_filter_batch_groups_total{lanes="1"} 22
gmx_filter_batch_groups_total{lanes="2"} 23
gmx_filter_batch_groups_total{lanes="3"} 24
gmx_filter_batch_groups_total{lanes="4"} 25
# TYPE gmx_pool_tasks_executed counter
gmx_pool_tasks_executed_total 20
# TYPE gmx_queue_depth gauge
gmx_queue_depth 7
# TYPE gmx_queue_peak gauge
gmx_queue_peak 8
# TYPE gmx_pool_workers gauge
gmx_pool_workers 19
# TYPE gmx_memory_budget_bytes gauge
gmx_memory_budget_bytes 4294967296
# TYPE gmx_memory_reserved_bytes gauge
gmx_memory_reserved_bytes 1234567891
# TYPE gmx_memory_reserved_peak_bytes gauge
gmx_memory_reserved_peak_bytes 17
# TYPE gmx_arena_peak_bytes gauge
gmx_arena_peak_bytes 18
# TYPE gmx_tier_completed counter
gmx_tier_completed_total{tier="filter"} 26
gmx_tier_completed_total{tier="banded"} 36
gmx_tier_completed_total{tier="full"} 44
gmx_tier_completed_total{tier="downgraded"} 54
gmx_tier_completed_total{tier="streamed"} 62
# TYPE gmx_tier_attempts counter
gmx_tier_attempts_total{tier="filter"} 28
gmx_tier_attempts_total{tier="banded"} 38
gmx_tier_attempts_total{tier="full"} 46
gmx_tier_attempts_total{tier="downgraded"} 56
gmx_tier_attempts_total{tier="streamed"} 64
# TYPE gmx_tier_cells counter
gmx_tier_cells_total{tier="filter"} 29
gmx_tier_cells_total{tier="banded"} 39
gmx_tier_cells_total{tier="full"} 47
gmx_tier_cells_total{tier="downgraded"} 57
gmx_tier_cells_total{tier="streamed"} 65
# TYPE gmx_tier_peak_bytes gauge
gmx_tier_peak_bytes{tier="filter"} 27000000000
gmx_tier_peak_bytes{tier="banded"} 37000000000
gmx_tier_peak_bytes{tier="full"} 45000000000
gmx_tier_peak_bytes{tier="downgraded"} 55000000000
gmx_tier_peak_bytes{tier="streamed"} 63000000000
# TYPE gmx_tier_setup_seconds counter
gmx_tier_setup_seconds_total{tier="filter"} 3.78417969e-09
gmx_tier_setup_seconds_total{tier="banded"} 5.00488281e-09
gmx_tier_setup_seconds_total{tier="full"} 5.98144531e-09
gmx_tier_setup_seconds_total{tier="downgraded"} 7.20214844e-09
gmx_tier_setup_seconds_total{tier="streamed"} 8.17871094e-09
# TYPE gmx_tier_kernel_seconds counter
gmx_tier_kernel_seconds_total{tier="filter"} 3.160494
gmx_tier_kernel_seconds_total{tier="banded"} 4.14814837
gmx_tier_kernel_seconds_total{tier="full"} 4.93827187
gmx_tier_kernel_seconds_total{tier="downgraded"} 5.92592625
gmx_tier_kernel_seconds_total{tier="streamed"} 6.71604975
# TYPE gmx_tier_gcups gauge
gmx_tier_gcups{tier="filter"} 8.25
gmx_tier_gcups{tier="banded"} 10.75
gmx_tier_gcups{tier="full"} 12.75
gmx_tier_gcups{tier="downgraded"} 15.25
gmx_tier_gcups{tier="streamed"} 17.25
# TYPE gmx_request_latency_seconds histogram
gmx_request_latency_seconds_bucket{le="1e-06"} 70
gmx_request_latency_seconds_bucket{le="2e-06"} 70
gmx_request_latency_seconds_bucket{le="4e-06"} 141
gmx_request_latency_seconds_bucket{le="8e-06"} 141
gmx_request_latency_seconds_bucket{le="1.6e-05"} 141
gmx_request_latency_seconds_bucket{le="3.2e-05"} 213
gmx_request_latency_seconds_bucket{le="+Inf"} 213
gmx_request_latency_seconds_sum 0.07000875
gmx_request_latency_seconds_count 213
# TYPE gmx_queue_wait_seconds histogram
gmx_queue_wait_seconds_bucket{tier="filter",le="1e-06"} 34
gmx_queue_wait_seconds_bucket{tier="filter",le="2e-06"} 34
gmx_queue_wait_seconds_bucket{tier="filter",le="4e-06"} 69
gmx_queue_wait_seconds_bucket{tier="filter",le="8e-06"} 69
gmx_queue_wait_seconds_bucket{tier="filter",le="1.6e-05"} 69
gmx_queue_wait_seconds_bucket{tier="filter",le="3.2e-05"} 105
gmx_queue_wait_seconds_bucket{tier="filter",le="+Inf"} 105
gmx_queue_wait_seconds_sum{tier="filter"} 0.03400425
gmx_queue_wait_seconds_count{tier="filter"} 105
gmx_queue_wait_seconds_bucket{tier="banded",le="+Inf"} 0
gmx_queue_wait_seconds_sum{tier="banded"} 0
gmx_queue_wait_seconds_count{tier="banded"} 0
gmx_queue_wait_seconds_bucket{tier="full",le="1e-06"} 52
gmx_queue_wait_seconds_bucket{tier="full",le="2e-06"} 52
gmx_queue_wait_seconds_bucket{tier="full",le="4e-06"} 105
gmx_queue_wait_seconds_bucket{tier="full",le="8e-06"} 105
gmx_queue_wait_seconds_bucket{tier="full",le="1.6e-05"} 105
gmx_queue_wait_seconds_bucket{tier="full",le="3.2e-05"} 159
gmx_queue_wait_seconds_bucket{tier="full",le="+Inf"} 159
gmx_queue_wait_seconds_sum{tier="full"} 0.0520065
gmx_queue_wait_seconds_count{tier="full"} 159
gmx_queue_wait_seconds_bucket{tier="downgraded",le="+Inf"} 0
gmx_queue_wait_seconds_sum{tier="downgraded"} 0
gmx_queue_wait_seconds_count{tier="downgraded"} 0
gmx_queue_wait_seconds_bucket{tier="streamed",le="+Inf"} 0
gmx_queue_wait_seconds_sum{tier="streamed"} 0
gmx_queue_wait_seconds_count{tier="streamed"} 0
# TYPE gmx_service_time_seconds histogram
gmx_service_time_seconds_bucket{tier="filter",le="1e-06"} 35
gmx_service_time_seconds_bucket{tier="filter",le="2e-06"} 35
gmx_service_time_seconds_bucket{tier="filter",le="4e-06"} 71
gmx_service_time_seconds_bucket{tier="filter",le="8e-06"} 71
gmx_service_time_seconds_bucket{tier="filter",le="1.6e-05"} 71
gmx_service_time_seconds_bucket{tier="filter",le="3.2e-05"} 108
gmx_service_time_seconds_bucket{tier="filter",le="+Inf"} 108
gmx_service_time_seconds_sum{tier="filter"} 0.035004375
gmx_service_time_seconds_count{tier="filter"} 108
gmx_service_time_seconds_bucket{tier="banded",le="+Inf"} 0
gmx_service_time_seconds_sum{tier="banded"} 0
gmx_service_time_seconds_count{tier="banded"} 0
gmx_service_time_seconds_bucket{tier="full",le="1e-06"} 53
gmx_service_time_seconds_bucket{tier="full",le="2e-06"} 53
gmx_service_time_seconds_bucket{tier="full",le="4e-06"} 107
gmx_service_time_seconds_bucket{tier="full",le="8e-06"} 107
gmx_service_time_seconds_bucket{tier="full",le="1.6e-05"} 107
gmx_service_time_seconds_bucket{tier="full",le="3.2e-05"} 162
gmx_service_time_seconds_bucket{tier="full",le="+Inf"} 162
gmx_service_time_seconds_sum{tier="full"} 0.053006625
gmx_service_time_seconds_count{tier="full"} 162
gmx_service_time_seconds_bucket{tier="downgraded",le="+Inf"} 0
gmx_service_time_seconds_sum{tier="downgraded"} 0
gmx_service_time_seconds_count{tier="downgraded"} 0
gmx_service_time_seconds_bucket{tier="streamed",le="+Inf"} 0
gmx_service_time_seconds_sum{tier="streamed"} 0
gmx_service_time_seconds_count{tier="streamed"} 0
# EOF
)om";

TEST(Exporter, GoldenSnapshotRendersArePinned)
{
    const MetricsSnapshot snap = goldenEngineSnapshot();
    EXPECT_EQ(snap.toJson(), kGoldenEngineJson);
    const std::string text = renderOpenMetrics(snap);
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
    EXPECT_EQ(test::familyBlocks(text),
              test::familyBlocks(kGoldenEngineOpenMetrics));
}

} // namespace
} // namespace gmx::engine

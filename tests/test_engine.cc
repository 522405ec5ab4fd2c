/**
 * @file
 * Tests for the alignment engine subsystem: the worker threads popping
 * the bounded submission queue, its backpressure policies, the adaptive
 * cascade, micro-batching, metrics, graceful shutdown — and the
 * robustness layer: typed Status results, input validation, per-request
 * deadlines, cooperative cancellation, and the memory-budget gate.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "align/nw.hh"
#include "align/verify.hh"
#include "common/logging.hh"
#include "common/status.hh"
#include "engine/budget.hh"
#include "engine/cascade.hh"
#include "engine/engine.hh"
#include "gmx/full.hh"
#include "sequence/dataset.hh"

namespace gmx::engine {
namespace {

using align::AlignResult;
using Outcome = Engine::AlignOutcome;
using std::chrono::milliseconds;

// ------------------------------------------------------------- cascade

TEST(Cascade, TiersAgreeWithNwGroundTruth)
{
    // Mixed divergence: low error hits the filter band, medium the
    // banded tier, high escalates to Full(GMX).
    seq::Generator gen(4242);
    CascadeConfig cfg;
    std::array<u64, kTierCount> seen{};
    for (double err : {0.01, 0.05, 0.12, 0.30, 0.45}) {
        for (int rep = 0; rep < 4; ++rep) {
            const auto pair = gen.pair(300, err);
            const auto outcome = cascadeAlign(pair, cfg, false);
            EXPECT_EQ(outcome.result.distance,
                      align::nwDistance(pair.pattern, pair.text))
                << "err=" << err << " rep=" << rep;
            ++seen[static_cast<unsigned>(outcome.tier)];
        }
    }
    // The mixed workload must actually exercise the escalation path.
    EXPECT_GT(seen[static_cast<unsigned>(Tier::Filter)], 0u);
    EXPECT_GT(seen[static_cast<unsigned>(Tier::Banded)] +
                  seen[static_cast<unsigned>(Tier::Full)],
              0u);
}

TEST(Cascade, CigarsIdenticalToFullGmx)
{
    seq::Generator gen(515);
    CascadeConfig cfg;
    for (double err : {0.02, 0.10, 0.25}) {
        for (int rep = 0; rep < 3; ++rep) {
            const auto pair = gen.pair(260, err);
            const auto outcome = cascadeAlign(pair, cfg, true);
            const auto full = core::fullGmxAlign(pair.pattern, pair.text);
            EXPECT_EQ(outcome.result.distance, full.distance);
            EXPECT_EQ(outcome.result.cigar, full.cigar)
                << "tier=" << tierName(outcome.tier) << " err=" << err;
            const auto check = align::verifyResult(pair.pattern, pair.text,
                                                   outcome.result);
            EXPECT_TRUE(check.ok) << check.error;
        }
    }
}

TEST(Cascade, HandlesEmptyAndSkewedPairs)
{
    CascadeConfig cfg;
    seq::SequencePair empty_pattern{seq::Sequence(""),
                                    seq::Sequence("ACGTACGT")};
    auto out = cascadeAlign(empty_pattern, cfg, true);
    EXPECT_EQ(out.result.distance, 8);
    EXPECT_EQ(out.tier, Tier::Full);

    // Length skew larger than the default budget must still be exact.
    seq::Generator gen(99);
    const auto text = gen.random(400);
    seq::SequencePair skewed{text.substr(0, 120), text};
    auto skew_out = cascadeAlign(skewed, cfg, false);
    EXPECT_EQ(skew_out.result.distance,
              align::nwDistance(skewed.pattern, skewed.text));
}

TEST(Cascade, DisabledRoutesEverythingFull)
{
    seq::Generator gen(7);
    CascadeConfig cfg;
    cfg.enabled = false;
    const auto pair = gen.pair(150, 0.01);
    EXPECT_EQ(cascadeAlign(pair, cfg, false).tier, Tier::Full);
}

TEST(Cascade, ExpiredTokenUnwindsWithDeadlineExceeded)
{
    seq::Generator gen(606);
    const auto pair = gen.pair(4000, 0.35);
    const CancelToken expired =
        CancelToken{}.withDeadline(CancelToken::Clock::now());
    try {
        cascadeAlign(pair, CascadeConfig{}, true, expired);
        FAIL() << "expected StatusError";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::DeadlineExceeded);
    }
}

// -------------------------------------------------------------- engine

TEST(Engine, OrderedResultsUnderConcurrency)
{
    const auto ds = seq::makeDataset("eng", 220, 0.08, 40, 2026);
    EngineConfig cfg;
    cfg.workers = 4;
    Engine engine(cfg);
    const auto results = engine.alignAll(ds.pairs, true);
    ASSERT_EQ(results.size(), ds.pairs.size());
    for (size_t i = 0; i < ds.pairs.size(); ++i) {
        ASSERT_TRUE(results[i].ok()) << results[i].status().toString();
        EXPECT_EQ(results[i]->distance,
                  align::nwDistance(ds.pairs[i].pattern, ds.pairs[i].text))
            << i;
        EXPECT_TRUE(results[i]->has_cigar);
    }
    const auto snap = engine.metrics();
    EXPECT_EQ(snap.submitted, ds.pairs.size());
    EXPECT_EQ(snap.completed, ds.pairs.size());
    EXPECT_EQ(snap.queue_depth, 0u);
    // Every request rode exactly one worker pickup; fusion may merge them.
    EXPECT_GE(snap.pool_executed, 1u);
    EXPECT_LE(snap.pool_executed, ds.pairs.size());
    EXPECT_EQ(snap.pool_workers, 4u);
}

TEST(Engine, WorkerCountResolvesZero)
{
    EngineConfig cfg;
    cfg.workers = 0; // one per hardware thread, never zero
    EXPECT_GE(Engine(cfg).workerCount(), 1u);
    cfg.workers = 3;
    Engine engine(cfg);
    EXPECT_EQ(engine.workerCount(), 3u);
    EXPECT_EQ(engine.metrics().pool_workers, 3u);
    EXPECT_TRUE(engine.alignAll({}).empty());
}

TEST(Engine, PinnedWorkersDoNotStallTheirSiblings)
{
    // Two of four workers are held by gate aligners; the other two must
    // still drain a flood of quick requests queued behind them.
    std::atomic<bool> release{false};
    std::atomic<int> pinned{0};
    EngineConfig cfg;
    cfg.workers = 4;
    cfg.microbatch_max = 1;
    Engine engine(cfg);
    struct Opener
    {
        std::atomic<bool> &release;
        ~Opener() { release.store(true); } // never join a pinned worker
    } opener{release};
    const align::PairAligner gate = [&](const seq::SequencePair &) {
        pinned.fetch_add(1);
        while (!release.load())
            std::this_thread::sleep_for(milliseconds(1));
        return AlignResult{0, {}, false};
    };
    const align::PairAligner quick = [](const seq::SequencePair &) {
        return AlignResult{0, {}, false};
    };
    seq::Generator gen(29);
    const auto pair = gen.pair(20, 0.0);
    std::vector<std::future<Outcome>> gates;
    for (int i = 0; i < 2; ++i)
        gates.push_back(engine.submit(pair, gate));
    for (int spin = 0; pinned.load() < 2 && spin < 5000; ++spin)
        std::this_thread::sleep_for(milliseconds(1));
    ASSERT_EQ(pinned.load(), 2) << "gates never started";

    std::vector<std::future<Outcome>> flood;
    for (int i = 0; i < 200; ++i)
        flood.push_back(engine.submit(pair, quick));
    for (auto &f : flood) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(10)),
                  std::future_status::ready);
        EXPECT_TRUE(f.get().ok());
    }
    for (auto &f : gates) // still held: the siblings served the flood
        EXPECT_NE(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
    release.store(true);
    for (auto &f : gates)
        EXPECT_TRUE(f.get().ok());
}

TEST(Engine, CustomAlignerAndTypedFailure)
{
    EngineConfig cfg;
    cfg.workers = 2;
    Engine engine(cfg);
    seq::Generator gen(11);
    const auto pair = gen.pair(100, 0.05);

    auto good = engine.submit(
        pair, align::PairAligner([](const seq::SequencePair &p) {
            return core::fullGmxAlign(p.pattern, p.text);
        }));
    auto good_res = good.get();
    ASSERT_TRUE(good_res.ok());
    EXPECT_EQ(good_res->distance,
              align::nwDistance(pair.pattern, pair.text));

    // A FatalError inside an aligner becomes InvalidInput; an arbitrary
    // exception becomes Internal. Neither ever escapes the future.
    auto bad = engine.submit(
        pair, align::PairAligner([](const seq::SequencePair &) -> AlignResult {
            GMX_FATAL("engine bomb");
        }));
    auto bad_res = bad.get();
    ASSERT_FALSE(bad_res.ok());
    EXPECT_EQ(bad_res.code(), StatusCode::InvalidInput);

    auto ugly = engine.submit(
        pair, align::PairAligner([](const seq::SequencePair &) -> AlignResult {
            throw std::runtime_error("spurious");
        }));
    EXPECT_EQ(ugly.get().code(), StatusCode::Internal);
    EXPECT_EQ(engine.metrics().failed, 2u);
}

TEST(Engine, BlockPolicyIsLossless)
{
    // Tiny queue + slow aligner: submitters must block, never drop.
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.queue_capacity = 2;
    cfg.backpressure = Backpressure::Block;
    cfg.microbatch_max = 1;
    Engine engine(cfg);
    const align::PairAligner slow = [](const seq::SequencePair &) {
        std::this_thread::sleep_for(milliseconds(2));
        return AlignResult{0, {}, false};
    };
    seq::Generator gen(13);
    std::vector<std::future<Outcome>> futures;
    for (int i = 0; i < 30; ++i)
        futures.push_back(engine.submit(gen.pair(20, 0.0), slow));
    for (auto &f : futures) {
        auto res = f.get();
        ASSERT_TRUE(res.ok());
        EXPECT_EQ(res->distance, 0);
    }
    const auto snap = engine.metrics();
    EXPECT_EQ(snap.completed, 30u);
    EXPECT_EQ(snap.rejected, 0u);
    EXPECT_EQ(snap.shed, 0u);
}

TEST(Engine, RejectPolicyFailsFastWithOverloaded)
{
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 1;
    cfg.backpressure = Backpressure::Reject;
    cfg.microbatch_max = 1;
    Engine engine(cfg);

    // Stall the single worker so the queue genuinely fills.
    std::atomic<bool> release{false};
    const align::PairAligner gate = [&release](const seq::SequencePair &) {
        while (!release.load())
            std::this_thread::sleep_for(milliseconds(1));
        return AlignResult{0, {}, false};
    };
    seq::Generator gen(17);
    std::vector<std::future<Outcome>> futures;
    size_t rejections = 0;
    for (int i = 0; i < 20; ++i) {
        auto f = engine.submit(gen.pair(20, 0.0), gate);
        // A rejected request's future is ready immediately.
        if (f.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
            auto res = f.get();
            if (!res.ok()) {
                EXPECT_EQ(res.code(), StatusCode::Overloaded);
                ++rejections;
                continue;
            }
        }
        futures.push_back(std::move(f));
    }
    EXPECT_GT(rejections, 0u);
    release.store(true);
    for (auto &f : futures) {
        auto res = f.get();
        ASSERT_TRUE(res.ok());
        EXPECT_EQ(res->distance, 0);
    }
    EXPECT_EQ(engine.metrics().rejected, rejections);
}

TEST(Engine, ShedOldestDropsTheOldestRequest)
{
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 2;
    cfg.backpressure = Backpressure::ShedOldest;
    cfg.microbatch_max = 1;
    Engine engine(cfg);

    std::atomic<bool> release{false};
    const align::PairAligner gate = [&release](const seq::SequencePair &) {
        while (!release.load())
            std::this_thread::sleep_for(milliseconds(1));
        return AlignResult{0, {}, false};
    };
    seq::Generator gen(19);
    std::vector<std::future<Outcome>> futures;
    for (int i = 0; i < 12; ++i)
        futures.push_back(engine.submit(gen.pair(20, 0.0), gate));
    release.store(true);

    size_t shed = 0, served = 0;
    bool last_served = false;
    for (size_t i = 0; i < futures.size(); ++i) {
        auto res = futures[i].get();
        if (res.ok()) {
            ++served;
            last_served = i + 1 == futures.size();
        } else {
            EXPECT_EQ(res.code(), StatusCode::Overloaded);
            ++shed;
        }
    }
    EXPECT_GT(shed, 0u);
    EXPECT_GT(served, 0u);
    EXPECT_EQ(shed + served, 12u);
    EXPECT_EQ(engine.metrics().shed, shed);
    // The newest submission must survive shedding (oldest goes first).
    EXPECT_TRUE(last_served);
}

TEST(Engine, MicrobatchesSmallRequests)
{
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.microbatch_max = 8;
    cfg.microbatch_bases = 4096;
    Engine engine(cfg);
    seq::Generator gen(23);
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 64; ++i)
        pairs.push_back(gen.pair(60, 0.05));
    // Burst-submit, then drain: with a single worker the queue backs up,
    // so the worker finds runs of small requests available to fuse.
    const auto results = engine.alignAll(pairs, false);
    for (size_t i = 0; i < pairs.size(); ++i) {
        ASSERT_TRUE(results[i].ok());
        EXPECT_EQ(results[i]->distance,
                  align::nwDistance(pairs[i].pattern, pairs[i].text));
    }
    const auto snap = engine.metrics();
    EXPECT_GT(snap.microbatches, 0u);
    EXPECT_GT(snap.batched_pairs, snap.microbatches);
}

TEST(Engine, GracefulStopFulfillsInFlightWork)
{
    std::vector<std::future<Outcome>> futures;
    const auto ds = seq::makeDataset("stop", 200, 0.10, 24, 31);
    {
        EngineConfig cfg;
        cfg.workers = 2;
        Engine engine(cfg);
        for (const auto &pair : ds.pairs)
            futures.push_back(engine.submit(pair, true));
        // Destructor stops the engine with most requests still queued.
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        const auto res = futures[i].get(); // must not hang or throw
        ASSERT_TRUE(res.ok());
        EXPECT_EQ(res->distance,
                  align::nwDistance(ds.pairs[i].pattern, ds.pairs[i].text));
    }
}

TEST(Engine, SubmitAfterStopReturnsEngineStopped)
{
    Engine engine(EngineConfig{});
    engine.stop();
    seq::Generator gen(37);
    auto f = engine.submit(gen.pair(50, 0.0), true);
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(f.get().code(), StatusCode::EngineStopped);
}

TEST(Engine, SingleWorkerServesInSubmissionOrder)
{
    // Dispatch is FIFO: with one worker, requests submitted from one
    // thread must run in exactly the order they were submitted.
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.microbatch_max = 1; // one request per pickup: every handoff counts
    Engine engine(cfg);
    constexpr int kRequests = 500;
    std::atomic<int> next{0};
    std::vector<int> ran_at(kRequests, -1);
    seq::Generator gen(43);
    const auto pair = gen.pair(20, 0.0);
    std::vector<std::future<Outcome>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        futures.push_back(engine.submit(
            pair, align::PairAligner([&next, &ran_at,
                                      i](const seq::SequencePair &) {
                ran_at[i] = next.fetch_add(1);
                return AlignResult{0, {}, false};
            })));
    }
    for (auto &f : futures)
        ASSERT_TRUE(f.get().ok());
    int inversions = 0;
    for (int i = 0; i < kRequests; ++i)
        inversions += ran_at[i] != i;
    EXPECT_EQ(inversions, 0);
}

TEST(Engine, MetricsSnapshotSerializesToJson)
{
    EngineConfig cfg;
    cfg.workers = 2;
    Engine engine(cfg);
    seq::Generator gen(41);
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 10; ++i)
        pairs.push_back(gen.pair(120, 0.05));
    engine.alignAll(pairs, false);
    const auto snap = engine.metrics();
    EXPECT_EQ(snap.completed, 10u);
    EXPECT_GT(snap.latency_count, 0u);
    EXPECT_GT(snap.latency_mean_us, 0.0);
    const std::string json = snap.toJson();
    EXPECT_NE(json.find("\"submitted\":10"), std::string::npos);
    EXPECT_NE(json.find("\"tiers\":{"), std::string::npos);
    EXPECT_NE(json.find("\"filter\":"), std::string::npos);
    EXPECT_NE(json.find("\"pool\":{\"workers\":2,\"executed\":"),
              std::string::npos);
    EXPECT_EQ(json.find("\"steals\""), std::string::npos);
    EXPECT_NE(json.find("\"deadline_missed\":0"), std::string::npos);
    EXPECT_NE(json.find("\"memory\":{"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

// ----------------------------------------------------- input validation

TEST(EngineValidation, EmptyPatternRejected)
{
    Engine engine(EngineConfig{});
    auto f = engine.submit(
        seq::SequencePair{seq::Sequence(""), seq::Sequence("ACGT")}, true);
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(f.get().code(), StatusCode::InvalidInput);
    const auto snap = engine.metrics();
    EXPECT_EQ(snap.invalid, 1u);
    EXPECT_EQ(snap.submitted, 0u); // never entered the queue
}

TEST(EngineValidation, EmptyTextRejected)
{
    Engine engine(EngineConfig{});
    auto f = engine.submit(
        seq::SequencePair{seq::Sequence("ACGT"), seq::Sequence("")}, true);
    EXPECT_EQ(f.get().code(), StatusCode::InvalidInput);
}

TEST(EngineValidation, NonAcgtRejectedWhenConfigured)
{
    EngineConfig cfg;
    cfg.limits.reject_non_acgt = true;
    Engine engine(cfg);
    auto bad = engine.submit(
        seq::SequencePair{seq::Sequence("ACGNNACG"), seq::Sequence("ACGT")},
        true);
    auto res = bad.get();
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.code(), StatusCode::InvalidInput);
    // Clean ACGT (either case) still passes.
    auto good = engine.submit(
        seq::SequencePair{seq::Sequence("acgt"), seq::Sequence("ACGT")},
        true);
    EXPECT_TRUE(good.get().ok());
}

TEST(EngineValidation, MaxPairBasesRejected)
{
    EngineConfig cfg;
    cfg.limits.max_pair_bases = 100;
    Engine engine(cfg);
    seq::Generator gen(43);
    auto f = engine.submit(gen.pair(80, 0.0), true); // 160 bases total
    EXPECT_EQ(f.get().code(), StatusCode::InvalidInput);
    auto ok = engine.submit(gen.pair(40, 0.0), true);
    EXPECT_TRUE(ok.get().ok());
}

TEST(EngineValidation, MaxLengthSkewRejected)
{
    EngineConfig cfg;
    cfg.limits.max_length_skew = 10;
    Engine engine(cfg);
    seq::Generator gen(47);
    const auto text = gen.random(100);
    auto f = engine.submit(seq::SequencePair{text.substr(0, 50), text},
                           false);
    EXPECT_EQ(f.get().code(), StatusCode::InvalidInput);
}

// ------------------------------------------- deadlines and cancellation

TEST(EngineDeadline, ExpiredDeadlineFailsFastWithoutBlockingSiblings)
{
    // Acceptance check: a 100 kbp Full(GMX)-bound pair whose deadline has
    // already expired must fail in well under 50 ms — never run its
    // quadratic kernel — while sibling requests complete normally.
    EngineConfig cfg;
    cfg.workers = 2;
    Engine engine(cfg);
    seq::Generator gen(53);
    const auto huge = gen.pair(100000, 0.30);
    std::vector<seq::SequencePair> siblings;
    for (int i = 0; i < 8; ++i)
        siblings.push_back(gen.pair(200, 0.05));

    SubmitOptions opts;
    opts.want_cigar = false;
    opts.timeout = std::chrono::nanoseconds(1); // expired on arrival
    const auto t0 = std::chrono::steady_clock::now();
    auto doomed = engine.submit(huge, std::move(opts));
    std::vector<std::future<Outcome>> sib;
    for (const auto &p : siblings)
        sib.push_back(engine.submit(p, false));

    auto res = doomed.get();
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.code(), StatusCode::DeadlineExceeded);
    EXPECT_LT(elapsed, milliseconds(50));

    for (size_t i = 0; i < sib.size(); ++i) {
        auto s = sib[i].get();
        ASSERT_TRUE(s.ok());
        EXPECT_EQ(s->distance, align::nwDistance(siblings[i].pattern,
                                                 siblings[i].text));
    }
    EXPECT_EQ(engine.metrics().deadline_missed, 1u);
}

TEST(EngineDeadline, MidKernelDeadlineUnwindsCooperatively)
{
    // A deadline short enough to expire while the kernel is running: the
    // cancel gate inside the tile loops must unwind the request.
    EngineConfig cfg;
    cfg.workers = 1;
    Engine engine(cfg);
    seq::Generator gen(59);
    const auto big = gen.pair(30000, 0.40);
    SubmitOptions opts;
    opts.want_cigar = false;
    opts.timeout = milliseconds(5);
    auto f = engine.submit(big, std::move(opts));
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    EXPECT_EQ(f.get().code(), StatusCode::DeadlineExceeded);
}

TEST(EngineDeadline, GenerousDeadlineDoesNotPerturbResults)
{
    EngineConfig cfg;
    cfg.workers = 2;
    Engine engine(cfg);
    seq::Generator gen(61);
    const auto pair = gen.pair(300, 0.10);
    SubmitOptions opts;
    opts.timeout = std::chrono::seconds(60);
    auto f = engine.submit(pair, std::move(opts));
    auto res = f.get();
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res->distance, align::nwDistance(pair.pattern, pair.text));
    EXPECT_EQ(engine.metrics().deadline_missed, 0u);
}

TEST(EngineCancel, SourceCancelsQueuedAndRunningRequests)
{
    EngineConfig cfg;
    cfg.workers = 1;
    Engine engine(cfg);
    seq::Generator gen(67);
    CancelSource source;

    // Already-cancelled token: fails fast at dispatch.
    source.cancel();
    SubmitOptions pre;
    pre.want_cigar = false;
    pre.cancel = source.token();
    auto f1 = engine.submit(gen.pair(500, 0.10), std::move(pre));
    EXPECT_EQ(f1.get().code(), StatusCode::Cancelled);

    // Cancel mid-run: a large pair starts, then the source fires.
    CancelSource mid;
    SubmitOptions opts;
    opts.want_cigar = false;
    opts.cancel = mid.token();
    auto f2 = engine.submit(gen.pair(50000, 0.35), std::move(opts));
    std::this_thread::sleep_for(milliseconds(5));
    mid.cancel();
    ASSERT_EQ(f2.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    EXPECT_EQ(f2.get().code(), StatusCode::Cancelled);
    EXPECT_EQ(engine.metrics().cancelled, 2u);
}

// -------------------------------------------------------- memory budget

TEST(EngineBudget, DowngradesTracebackUnderPressureAndStaysExact)
{
    // Full(GMX) traceback on a 3000-bp pair wants ~283 KB of tile edges;
    // a 160 KB budget refuses that but admits two concurrent Hirschberg
    // footprints (~54 KB each), so every request downgrades — and stays
    // exact.
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.memory_budget_bytes = 160 * 1024;
    Engine engine(cfg);
    seq::Generator gen(71);
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 6; ++i)
        pairs.push_back(gen.pair(3000, 0.05));
    const auto results = engine.alignAll(pairs, true);
    for (size_t i = 0; i < pairs.size(); ++i) {
        ASSERT_TRUE(results[i].ok()) << results[i].status().toString();
        EXPECT_EQ(results[i]->distance,
                  align::nwDistance(pairs[i].pattern, pairs[i].text));
        EXPECT_TRUE(results[i]->has_cigar);
    }
    const auto snap = engine.metrics();
    EXPECT_EQ(snap.downgraded, pairs.size());
    EXPECT_EQ(snap.tier_hits[static_cast<unsigned>(Tier::Downgraded)],
              pairs.size());
    EXPECT_GT(snap.mem_reserved_peak, 0u);
    EXPECT_LE(snap.mem_reserved_peak, snap.mem_budget_bytes);
    EXPECT_EQ(snap.mem_reserved_bytes, 0u); // all reservations released
}

TEST(EngineBudget, RejectsWithResourceExhaustedWhenDowngradeDisabled)
{
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.memory_budget_bytes = 64 * 1024;
    cfg.downgrade_under_pressure = false;
    Engine engine(cfg);
    seq::Generator gen(73);
    auto f = engine.submit(gen.pair(3000, 0.05), true);
    auto res = f.get();
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.code(), StatusCode::ResourceExhausted);
    const auto snap = engine.metrics();
    EXPECT_EQ(snap.resource_rejected, 1u);
    EXPECT_LE(snap.mem_reserved_peak, snap.mem_budget_bytes);
}

TEST(EngineBudget, DistanceOnlyRequestsHaveNoDowngradeTier)
{
    // Distance-only footprints are already frugal; when even they exceed
    // a (pathologically small) budget, the request must fail typed.
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.memory_budget_bytes = 1024;
    Engine engine(cfg);
    seq::Generator gen(79);
    auto f = engine.submit(gen.pair(3000, 0.05), false);
    EXPECT_EQ(f.get().code(), StatusCode::ResourceExhausted);
    // Small pairs still fit and complete.
    auto ok = engine.submit(gen.pair(40, 0.0), false);
    EXPECT_TRUE(ok.get().ok());
}

TEST(EngineBudget, EstimatorsAreMonotonicAndTileAware)
{
    EXPECT_EQ(fullGmxTracebackBytes(0, 100, 32), 100u);
    // 3000x3000 at T=32: 94*94 tile edges of 32 bytes + ops bytes.
    EXPECT_EQ(fullGmxTracebackBytes(3000, 3000, 32),
              94u * 94u * kTileEdgeBytes + 6000u);
    EXPECT_LT(hirschbergBytes(3000, 3000),
              fullGmxTracebackBytes(3000, 3000, 32));
    EXPECT_LT(distanceOnlyBytes(3000, 3000, 32),
              fullGmxTracebackBytes(3000, 3000, 32));
    EXPECT_GT(fullGmxTracebackBytes(6000, 6000, 32),
              fullGmxTracebackBytes(3000, 3000, 32));
}

} // namespace
} // namespace gmx::engine

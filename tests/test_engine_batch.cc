/**
 * @file
 * Engine-level tests for the lane-packed filter tier: end-to-end
 * bit-identity of batched vs forced-scalar cascades through
 * Engine::submit, deterministic lane packing of fused micro-batches,
 * per-lane deadline semantics (expired-in-queue and mid-batch), the
 * head-of-line fusion fix, the packing metrics, and the cascade's
 * one-distance-pass, one-traceback-attempt contract on a shared corpus.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "align/bpm.hh"
#include "align/nw.hh"
#include "align/verify.hh"
#include "engine/engine.hh"
#include "kernel/dispatch.hh"
#include "kernel/simd/bpm_simd.hh"
#include "sequence/generator.hh"

namespace gmx::engine {
namespace {

using align::AlignResult;
using Outcome = Engine::AlignOutcome;
using std::chrono::milliseconds;

/** RAII guard so a failing assertion can't leak the test override. */
struct ForceScalarGuard
{
    explicit ForceScalarGuard(int force)
    {
        kernel::setForceScalarForTest(force);
    }
    ~ForceScalarGuard() { kernel::setForceScalarForTest(-1); }
};

/**
 * The PR 8 word-boundary corpus, end-to-end: one word, one word + 1,
 * multi-block, and one row past each block boundary, at divergences
 * that exercise filter hits, banded rescues, and full-tier escalation.
 */
std::vector<seq::SequencePair>
wordBoundaryCorpus(u64 seed)
{
    seq::Generator gen(seed);
    std::vector<seq::SequencePair> pairs;
    for (size_t len : {64u, 65u, 128u, 129u, 256u, 257u})
        for (double err : {0.0, 0.02, 0.10, 0.30})
            pairs.push_back(gen.pair(len, err));
    return pairs;
}

/** Distance-only results through a fresh engine with @p mode packing. */
std::vector<Outcome>
runEngine(const std::vector<seq::SequencePair> &pairs, FilterBatching mode,
          MetricsSnapshot *snap = nullptr)
{
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.filter_batching = mode;
    Engine engine(cfg);
    auto results = engine.alignAll(pairs, /*want_cigar=*/false);
    if (snap)
        *snap = engine.metrics();
    return results;
}

TEST(EngineBatch, BatchedMatchesForcedScalarOverWordBoundaryCorpus)
{
    // The PR 8 twin tests, extended end-to-end through Engine::submit:
    // the batched engine and a forced-scalar engine must produce
    // bit-identical distances on the same corpus, and both must equal
    // the Needleman-Wunsch ground truth.
    const auto corpus = wordBoundaryCorpus(90210);

    const auto batched = runEngine(corpus, FilterBatching::On);

    ForceScalarGuard guard(1);
    const auto scalar = runEngine(corpus, FilterBatching::On);

    ASSERT_EQ(batched.size(), corpus.size());
    ASSERT_EQ(scalar.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
        ASSERT_TRUE(batched[i].ok()) << "pair " << i;
        ASSERT_TRUE(scalar[i].ok()) << "pair " << i;
        EXPECT_EQ(batched[i].value().distance, scalar[i].value().distance)
            << "pair " << i;
        EXPECT_EQ(batched[i].value().distance,
                  align::nwDistance(corpus[i].pattern, corpus[i].text))
            << "pair " << i;
    }
}

TEST(EngineBatch, MixedSizeGroupsAndPartialTailsMatchScalar)
{
    // Submission counts that force every lane-occupancy shape the packer
    // can see: singletons (no packing), 2- and 3-lane partial tails, and
    // a full quad plus tail — over mixed sizes so one group holds 1-, 2-
    // and 4-block patterns side by side.
    seq::Generator gen(4711);
    std::vector<seq::SequencePair> mixed;
    const size_t lens[] = {60, 130, 257, 100, 64, 300, 150};
    for (size_t len : lens)
        mixed.push_back(gen.pair(len, 0.05));

    for (size_t take : {1u, 2u, 3u, 5u, 7u}) {
        const std::vector<seq::SequencePair> subset(mixed.begin(),
                                                    mixed.begin() + take);
        const auto batched = runEngine(subset, FilterBatching::On);
        ForceScalarGuard guard(1);
        const auto scalar = runEngine(subset, FilterBatching::On);
        ASSERT_EQ(batched.size(), take);
        for (size_t i = 0; i < take; ++i) {
            ASSERT_TRUE(batched[i].ok()) << take << "/" << i;
            ASSERT_TRUE(scalar[i].ok()) << take << "/" << i;
            EXPECT_EQ(batched[i].value().distance,
                      scalar[i].value().distance)
                << take << "/" << i;
        }
    }
}

/**
 * Fixture that wedges a 1-worker engine behind a gate aligner, so
 * requests submitted next are provably queued together and fuse into one
 * micro-batch on release. The engine member is built by start() so each
 * test picks its own config.
 */
struct BlockedEngine
{
    std::atomic<int> running{0};
    std::atomic<bool> release{false};
    std::future<Outcome> blocker;
    std::unique_ptr<Engine> engine;

    void start(EngineConfig cfg)
    {
        cfg.workers = 1;
        engine = std::make_unique<Engine>(cfg);
        seq::Generator gen(1);
        const align::PairAligner gate =
            [this](const seq::SequencePair &) {
                running.fetch_add(1);
                while (!release.load())
                    std::this_thread::sleep_for(milliseconds(1));
                return AlignResult{0, {}, false};
            };
        // Wait until the blocker is RUNNING on the lone worker: the
        // queue is then empty, so the payload submitted next can only
        // queue behind it — and fuse.
        blocker = engine->submit(gen.pair(20, 0.0), gate);
        for (int spin = 0; running.load() < 1 && spin < 5000; ++spin)
            std::this_thread::sleep_for(milliseconds(1));
        ASSERT_EQ(running.load(), 1) << "blocker stuck";
    }

    ~BlockedEngine() { release.store(true); }

    void releaseAll()
    {
        release.store(true);
        blocker.get();
    }
};

TEST(EngineBatch, FusedRequestsPackIntoLaneGroupsWithOccupancyCounters)
{
    if (kernel::forceScalar())
        GTEST_SKIP() << "GMX_FORCE_SCALAR=1: packing disabled by design";

    EngineConfig cfg;
    cfg.microbatch_max = 8;
    cfg.filter_batching = FilterBatching::On;
    BlockedEngine blocked;
    blocked.start(cfg);
    if (HasFatalFailure())
        return;

    // Seven eligible smalls queue behind the wedged worker, fuse into one
    // micro-batch, and pack as one full quad plus a 3-lane tail.
    seq::Generator gen(2024);
    std::vector<seq::SequencePair> pairs;
    std::vector<std::future<Outcome>> futures;
    for (int i = 0; i < 7; ++i)
        pairs.push_back(gen.pair(100, 0.05));
    for (const auto &pair : pairs) {
        SubmitOptions opts;
        opts.want_cigar = false;
        futures.push_back(blocked.engine->submit(pair, std::move(opts)));
    }
    blocked.releaseAll();

    for (size_t i = 0; i < futures.size(); ++i) {
        const auto res = futures[i].get();
        ASSERT_TRUE(res.ok()) << i;
        EXPECT_EQ(res.value().distance,
                  align::nwDistance(pairs[i].pattern, pairs[i].text))
            << i;
    }

    const auto snap = blocked.engine->metrics();
    EXPECT_EQ(snap.batched_pairs, 7u);
    EXPECT_EQ(snap.filter_batches, 2u);
    EXPECT_EQ(snap.filter_batched_pairs, 7u);
    EXPECT_EQ(snap.filter_batch_lanes[3], 1u); // one full quad
    EXPECT_EQ(snap.filter_batch_lanes[2], 1u); // one 3-lane tail
    EXPECT_EQ(snap.filter_batch_lanes[0], 0u);
    EXPECT_EQ(snap.filter_batch_lanes[1], 0u);
}

TEST(EngineBatch, ExpiredLaneIsExcludedFromPackingAndFastFails)
{
    if (kernel::forceScalar())
        GTEST_SKIP() << "GMX_FORCE_SCALAR=1: packing disabled by design";

    EngineConfig cfg;
    cfg.microbatch_max = 8;
    cfg.filter_batching = FilterBatching::On;
    BlockedEngine blocked;
    blocked.start(cfg);
    if (HasFatalFailure())
        return;

    // Four fused requests, one with a deadline that expires while the
    // blocker holds the engine: the packer must not give it a lane (its
    // siblings pack as a 3-lane group) and runOne must fast-fail it.
    seq::Generator gen(31);
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 4; ++i)
        pairs.push_back(gen.pair(120, 0.04));
    std::vector<std::future<Outcome>> futures;
    for (size_t i = 0; i < pairs.size(); ++i) {
        SubmitOptions opts;
        opts.want_cigar = false;
        if (i == 1)
            opts.timeout = milliseconds(5);
        futures.push_back(blocked.engine->submit(pairs[i],
                                                 std::move(opts)));
    }
    std::this_thread::sleep_for(milliseconds(40)); // expire lane 1
    blocked.releaseAll();

    for (size_t i = 0; i < futures.size(); ++i) {
        const auto res = futures[i].get();
        if (i == 1) {
            ASSERT_FALSE(res.ok());
            EXPECT_EQ(res.status().code(), StatusCode::DeadlineExceeded);
        } else {
            ASSERT_TRUE(res.ok()) << i;
            EXPECT_EQ(res.value().distance,
                      align::nwDistance(pairs[i].pattern, pairs[i].text))
                << i;
        }
    }

    const auto snap = blocked.engine->metrics();
    EXPECT_EQ(snap.deadline_missed, 1u);
    EXPECT_EQ(snap.filter_batches, 1u);
    EXPECT_EQ(snap.filter_batched_pairs, 3u);
    EXPECT_EQ(snap.filter_batch_lanes[2], 1u);
}

TEST(EngineBatch, MidBatchDeadlineStopsOnlyThatLane)
{
    // Kernel-level per-lane cancellation: one lane's deadline expires
    // while the packed column loop is running. That lane must stop with
    // DeadlineExceeded and partial work; its fused siblings must run to
    // completion with exact distances. The text is long enough that the
    // kernel provably outlives the 3 ms budget, and the budget is long
    // enough that the lane provably survives the pre-check at column 0.
    seq::Generator gen(555);
    const auto long_pair = gen.pair(1000000, 0.02);
    std::array<seq::SequencePair, 4> pairs;
    for (auto &p : pairs) {
        auto src = gen.pair(500, 0.05);
        p.pattern = std::move(src.pattern);
        p.text = long_pair.text; // ~1 Mbp columns for every lane
    }

    std::array<i64, 4> expected{};
    for (size_t i = 0; i < pairs.size(); ++i) {
        KernelContext ctx;
        expected[i] =
            align::bpmDistance(pairs[i].pattern, pairs[i].text, ctx);
    }
    const u64 full_cells = static_cast<u64>(pairs[0].pattern.size()) *
                           static_cast<u64>(pairs[0].text.size());

    std::array<simd::BatchLane, 4> lanes{};
    for (size_t i = 0; i < pairs.size(); ++i)
        lanes[i].pair = &pairs[i];
    lanes[2].cancel = CancelToken{}.withTimeout(milliseconds(3));

    KernelContext ctx;
    simd::bpmDistanceBatchLanes({lanes.data(), lanes.size()}, ctx);

    EXPECT_FALSE(lanes[2].status.ok());
    EXPECT_EQ(lanes[2].status.code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(lanes[2].distance, align::kNoAlignment);
    // Partial attribution: it ran some columns, not all of them.
    EXPECT_GT(lanes[2].counts.cells, 0u);
    EXPECT_LT(lanes[2].counts.cells, full_cells);

    for (size_t i : {0u, 1u, 3u}) {
        ASSERT_TRUE(lanes[i].status.ok()) << i;
        EXPECT_EQ(lanes[i].distance, expected[i]) << i;
        EXPECT_EQ(lanes[i].counts.cells,
                  static_cast<u64>(pairs[i].pattern.size()) *
                      static_cast<u64>(pairs[i].text.size()))
            << i;
    }
}

TEST(EngineBatch, PreCancelledLaneReportsCancelledWithZeroWork)
{
    // A token that fired before the group launched: the LaneGuard
    // pre-check must kill the lane at column 0 — zero cells, Cancelled —
    // while the other three lanes are unaffected.
    seq::Generator gen(808);
    std::array<seq::SequencePair, 4> pairs;
    for (auto &p : pairs)
        p = gen.pair(150, 0.05);

    CancelSource src;
    src.cancel();
    std::array<simd::BatchLane, 4> lanes{};
    for (size_t i = 0; i < pairs.size(); ++i)
        lanes[i].pair = &pairs[i];
    lanes[1].cancel = src.token();

    KernelContext ctx;
    simd::bpmDistanceBatchLanes({lanes.data(), lanes.size()}, ctx);

    EXPECT_EQ(lanes[1].status.code(), StatusCode::Cancelled);
    EXPECT_EQ(lanes[1].counts.cells, 0u);
    EXPECT_EQ(lanes[1].distance, align::kNoAlignment);
    for (size_t i : {0u, 2u, 3u}) {
        ASSERT_TRUE(lanes[i].status.ok()) << i;
        KernelContext scalar;
        EXPECT_EQ(lanes[i].distance,
                  align::bpmDistance(pairs[i].pattern, pairs[i].text,
                                     scalar))
            << i;
    }
}

TEST(EngineBatch, PerLaneCountsSumToAggregateAndMatchScalarCells)
{
    // Satellite 1: each lane carries its own work attribution — exactly
    // the cells the scalar kernel would report for that pair — and the
    // shared context's aggregate sink sees their sum.
    seq::Generator gen(99);
    std::array<seq::SequencePair, 4> pairs;
    for (size_t i = 0; i < pairs.size(); ++i)
        pairs[i] = gen.pair(100 + 50 * i, 0.05); // mixed sizes

    std::array<simd::BatchLane, 4> lanes{};
    for (size_t i = 0; i < pairs.size(); ++i)
        lanes[i].pair = &pairs[i];

    KernelCounts aggregate;
    ScratchArena arena;
    KernelContext ctx(CancelToken{}, &aggregate, &arena);
    simd::bpmDistanceBatchLanes({lanes.data(), lanes.size()}, ctx);

    u64 sum = 0;
    for (size_t i = 0; i < lanes.size(); ++i) {
        ASSERT_TRUE(lanes[i].status.ok()) << i;
        EXPECT_EQ(lanes[i].counts.cells,
                  static_cast<u64>(pairs[i].pattern.size()) *
                      static_cast<u64>(pairs[i].text.size()))
            << i;
        sum += lanes[i].counts.cells;
    }
    EXPECT_EQ(aggregate.cells, sum);
}

TEST(EngineBatch, LargeHeadNoLongerSuppressesFusingTheSmallRunBehindIt)
{
    // Satellite 4 regression: a large request at the batch head used to
    // disable fusion for the whole dispatch round, so the run of smalls
    // behind it paid one pickup each. A worker now fuses the smalls
    // behind the large head without reordering: one pickup, four
    // batched pairs (the old gate reported zero batched pairs here,
    // because the 3-element small run was never fused at all).
    EngineConfig cfg;
    cfg.microbatch_max = 8;
    BlockedEngine blocked;
    blocked.start(cfg);
    if (HasFatalFailure())
        return;

    seq::Generator gen(7);
    std::vector<seq::SequencePair> pairs;
    pairs.push_back(gen.pair(1600, 0.05)); // 3200 bases: large head
    for (int i = 0; i < 3; ++i)
        pairs.push_back(gen.pair(150, 0.02)); // small run behind it
    std::vector<std::future<Outcome>> futures;
    for (const auto &pair : pairs) {
        SubmitOptions opts;
        opts.want_cigar = false;
        futures.push_back(blocked.engine->submit(pair, std::move(opts)));
    }
    blocked.releaseAll();

    for (size_t i = 0; i < futures.size(); ++i) {
        const auto res = futures[i].get();
        ASSERT_TRUE(res.ok()) << i;
        EXPECT_EQ(res.value().distance,
                  align::nwDistance(pairs[i].pattern, pairs[i].text))
            << i;
    }

    const auto snap = blocked.engine->metrics();
    EXPECT_EQ(snap.microbatches, 1u);
    EXPECT_EQ(snap.batched_pairs, 4u);
}

TEST(EngineBatch, PackingMetricsStayZeroWhenOffOrForcedScalar)
{
    // FilterBatching::Off and GMX_FORCE_SCALAR must both mean "the
    // per-request scalar cascade, full stop": same results, no packed
    // groups counted.
    const auto corpus = wordBoundaryCorpus(60606);

    MetricsSnapshot off_snap;
    const auto off = runEngine(corpus, FilterBatching::Off, &off_snap);
    EXPECT_EQ(off_snap.filter_batches, 0u);
    EXPECT_EQ(off_snap.filter_batched_pairs, 0u);

    ForceScalarGuard guard(1);
    MetricsSnapshot forced_snap;
    const auto forced = runEngine(corpus, FilterBatching::On, &forced_snap);
    EXPECT_EQ(forced_snap.filter_batches, 0u);
    EXPECT_EQ(forced_snap.filter_batched_pairs, 0u);

    for (size_t i = 0; i < corpus.size(); ++i) {
        ASSERT_TRUE(off[i].ok()) << i;
        ASSERT_TRUE(forced[i].ok()) << i;
        EXPECT_EQ(off[i].value().distance, forced[i].value().distance)
            << i;
    }
}


// ---------------------------------------------------- cascade corpus

TEST(CascadeCorpus, OneDistancePassThenOneTracebackAttempt)
{
    // Every short-class request takes one exact distance pass; a CIGAR
    // request then makes exactly one traceback attempt, banded iff the
    // distance is within 2k. Word-boundary lengths and divergences on
    // both sides of k and 2k, plus skewed shapes.
    seq::Generator gen(3333);
    const CascadeConfig cfg;
    std::vector<seq::SequencePair> pairs;
    for (size_t len : {40u, 64u, 65u, 150u, 257u, 300u, 700u})
        for (double err : {0.0, 0.02, 0.08, 0.15, 0.3, 0.5})
            pairs.push_back(gen.pair(len, err));
    for (auto [n, m] : {std::pair<size_t, size_t>{10, 300}, {100, 1500},
                        {700, 300}}) {
        const auto t = gen.random(std::max(n, m));
        pairs.push_back({t.substr(0, n), t.substr(0, m)});
    }

    size_t past_k = 0, banded = 0, full = 0;
    for (const auto &pair : pairs) {
        const size_t n = pair.pattern.size();
        const size_t m = pair.text.size();
        const i64 truth = align::nwDistance(pair.pattern, pair.text);
        const i64 k = cascadeFilterK(cfg, n, m);
        past_k += truth > k;

        const auto distance = cascadeAlign(pair, cfg, false);
        ASSERT_EQ(distance.attempts.size(), 1u) << n << "x" << m;
        EXPECT_EQ(distance.tier, Tier::Filter);
        EXPECT_EQ(distance.result.distance, truth) << n << "x" << m;

        const auto traced = cascadeAlign(pair, cfg, true);
        ASSERT_EQ(traced.attempts.size(), 2u) << n << "x" << m;
        EXPECT_EQ(traced.attempts[0].tier, Tier::Filter);
        const bool in_band = truth <= 2 * k;
        EXPECT_EQ(traced.tier, in_band ? Tier::Banded : Tier::Full)
            << n << "x" << m << " d=" << truth << " k=" << k;
        (in_band ? banded : full) += 1;
        EXPECT_EQ(traced.result.distance, truth) << n << "x" << m;
        const auto check =
            align::verifyResult(pair.pattern, pair.text, traced.result);
        EXPECT_TRUE(check.ok) << check.error;
    }
    EXPECT_GT(past_k, 0u);
    EXPECT_GT(banded, 0u);
    EXPECT_GT(full, 0u);

    // Tier 1 no longer misses past k: a packed lane reports the exact
    // distance the scalar tier computes, with the SIMD gate open or
    // forced shut, called directly and through the engine's packer.
    std::vector<seq::SequencePair> wide;
    for (const auto &pair : pairs)
        if (simd::batchLaneFits(pair.pattern.size(), pair.text.size()) &&
            align::nwDistance(pair.pattern, pair.text) >
                cascadeFilterK(cfg, pair.pattern.size(), pair.text.size()))
            wide.push_back(pair);
    ASSERT_GE(wide.size(), 4u);
    wide.resize(std::min<size_t>(wide.size(), 8));
    for (const int force : {0, 1}) {
        ForceScalarGuard guard(force);
        ScratchArena arena;
        std::array<FilterLane, 8> lanes{};
        for (size_t at = 0; at < wide.size(); at += simd::kBatchLanes) {
            std::array<FilterLane *, simd::kBatchLanes> group{};
            const size_t cnt =
                std::min(simd::kBatchLanes, wide.size() - at);
            for (size_t j = 0; j < cnt; ++j) {
                lanes[at + j].pair = &wide[at + j];
                group[j] = &lanes[at + j];
            }
            cascadeFilterBatch({group.data(), cnt}, arena);
        }

        EngineConfig ecfg;
        ecfg.microbatch_max = wide.size();
        ecfg.filter_batching = FilterBatching::On;
        BlockedEngine blocked;
        blocked.start(ecfg);
        if (HasFatalFailure())
            return;
        std::vector<std::future<Outcome>> futures;
        for (const auto &pair : wide)
            futures.push_back(blocked.engine->submit(pair, false));
        blocked.releaseAll();

        for (size_t i = 0; i < wide.size(); ++i) {
            const i64 scalar =
                cascadeAlign(wide[i], cfg, false).result.distance;
            ASSERT_TRUE(lanes[i].status.ok()) << i;
            EXPECT_EQ(lanes[i].result.distance, scalar)
                << "force=" << force << " lane " << i;
            const auto served = futures[i].get();
            ASSERT_TRUE(served.ok()) << i;
            EXPECT_EQ(served.value().distance, scalar)
                << "force=" << force << " request " << i;
            EXPECT_EQ(scalar,
                      align::nwDistance(wide[i].pattern, wide[i].text));
        }
        // The engine packed every request unless the gate is forced shut.
        EXPECT_EQ(blocked.engine->metrics().filter_batched_pairs,
                  kernel::forceScalar() ? 0u : wide.size())
            << "force=" << force;
    }
}

} // namespace
} // namespace gmx::engine

/**
 * @file
 * Engine-level tests for the lane-packed filter tier: end-to-end
 * bit-identity of batched vs forced-scalar cascades through
 * Engine::submit, deterministic lane packing of fused micro-batches,
 * per-lane deadline semantics (expired-in-queue and mid-batch), the
 * head-of-line fusion fix, and the packing metrics.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "align/bpm.hh"
#include "align/nw.hh"
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

} // namespace
} // namespace gmx::engine

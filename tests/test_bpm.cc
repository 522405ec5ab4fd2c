/**
 * @file
 * Tests for Full(BPM): Myers' blocked bit-parallel aligner, differential
 * against the NW reference across the parameter grid.
 */

#include <gtest/gtest.h>

#include <vector>

#include "align/bpm.hh"
#include "align/nw.hh"
#include "align/verify.hh"
#include "kernel/arena.hh"
#include "kernel/simd/bpm_simd.hh"
#include "test_util.hh"

namespace gmx::align {
namespace {

using seq::Sequence;

TEST(BpmDistance, HandComputedCases)
{
    EXPECT_EQ(bpmDistance(Sequence("GATT"), Sequence("GCAT")), 2);
    EXPECT_EQ(bpmDistance(Sequence("ACGT"), Sequence("ACGT")), 0);
    EXPECT_EQ(bpmDistance(Sequence("A"), Sequence("T")), 1);
    EXPECT_EQ(bpmDistance(Sequence(""), Sequence("ACGT")), 4);
    EXPECT_EQ(bpmDistance(Sequence("ACGT"), Sequence("")), 4);
}

class BpmGridTest : public ::testing::TestWithParam<test::PairParams>
{
};

TEST_P(BpmGridTest, DistanceMatchesNw)
{
    const auto pair = test::makePair(GetParam());
    EXPECT_EQ(bpmDistance(pair.pattern, pair.text),
              nwDistance(pair.pattern, pair.text));
}

TEST_P(BpmGridTest, AlignMatchesNwAndVerifies)
{
    const auto pair = test::makePair(GetParam());
    const auto res = bpmAlign(pair.pattern, pair.text);
    EXPECT_EQ(res.distance, nwDistance(pair.pattern, pair.text));
    const auto check = verifyResult(pair.pattern, pair.text, res);
    EXPECT_TRUE(check.ok) << check.error;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BpmGridTest, ::testing::ValuesIn(test::standardGrid()),
    [](const auto &info) { return test::paramName(info.param); });

TEST(Bpm, ExactBlockBoundaryPatterns)
{
    // Pattern lengths straddling the 64-bit block boundary are the classic
    // failure mode of blocked Myers implementations.
    seq::Generator gen(51);
    for (size_t n : {63u, 64u, 65u, 127u, 128u, 129u, 191u, 192u, 193u,
                     255u, 256u, 257u}) {
        const auto p = gen.random(n);
        const auto t = gen.mutate(p, 0.1);
        EXPECT_EQ(bpmDistance(p, t), nwDistance(p, t)) << "n=" << n;
        const auto res = bpmAlign(p, t);
        EXPECT_EQ(res.distance, nwDistance(p, t)) << "n=" << n;
        EXPECT_TRUE(verifyResult(p, t, res).ok) << "n=" << n;
    }
}

TEST(Bpm, HighErrorRate)
{
    // BPM is error-agnostic (unlike Bitap): random unrelated sequences.
    seq::Generator gen(53);
    const auto p = gen.random(500);
    const auto t = gen.random(480);
    EXPECT_EQ(bpmDistance(p, t), nwDistance(p, t));
}

TEST(Bpm, AsymmetricLengths)
{
    seq::Generator gen(57);
    const auto p = gen.random(40);
    const auto t = gen.random(700);
    EXPECT_EQ(bpmDistance(p, t), nwDistance(p, t));
    const auto res = bpmAlign(p, t);
    EXPECT_TRUE(verifyResult(p, t, res).ok);
}

TEST(Bpm, PeqMemoAvoidsRebuildAcrossRetries)
{
    // The cascade retries tiers on the same pattern; a PeqMemo on the
    // context must serve the second attempt from cache without changing
    // the answer.
    seq::Generator gen(61);
    const auto pair = gen.pair(150, 0.05);
    PeqMemo memo;
    ScratchArena arena;
    KernelContext ctx(CancelToken{}, nullptr, &arena);
    ctx.setPeqMemo(&memo);
    const i64 d1 = bpmDistance(pair.pattern, pair.text, ctx);
    const i64 d2 = bpmDistance(pair.pattern, pair.text, ctx);
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(d1, nwDistance(pair.pattern, pair.text));
    EXPECT_EQ(memo.builds, 1u);
    EXPECT_GE(memo.hits, 1u);

    // A different pattern invalidates the memo instead of serving stale
    // masks.
    const auto other = gen.pair(150, 0.05);
    EXPECT_EQ(bpmDistance(other.pattern, other.text, ctx),
              nwDistance(other.pattern, other.text));
    EXPECT_EQ(memo.builds, 2u);
}

TEST(Bpm, InterPairBatchMatchesScalarAcrossWidths)
{
    // The batched distance path packs four pairs per vector with
    // per-lane multi-block recurrences; every width class — single
    // block, block-boundary straddlers, the full kBatchMaxPattern, and
    // over-long fallback pairs — must reproduce the scalar distances.
    seq::Generator gen(67);
    std::vector<seq::SequencePair> pairs;
    for (size_t n : {1u, 3u, 60u, 63u, 64u, 65u, 127u, 128u, 129u, 150u,
                     191u, 192u, 193u, 255u, 256u, 257u, 300u, 511u, 512u,
                     600u})
        for (double err : {0.05, 0.3})
            pairs.push_back(gen.pair(n, err));
    // Mixed-width groups: shuffle so single groups of four span block
    // counts (the per-block rsh/sel masks must freeze each lane's score
    // at its own final row, not the widest lane's).
    std::vector<seq::SequencePair> mixed;
    for (size_t i = 0; i < pairs.size(); ++i)
        mixed.push_back(pairs[(i * 13) % pairs.size()]);
    for (const auto &p : mixed)
        pairs.push_back(p);
    // Short texts against wide patterns, and empty-text fallback.
    pairs.push_back({gen.random(150), gen.random(4)});
    pairs.push_back({gen.random(300), gen.random(7)});
    pairs.push_back({gen.random(100), seq::Sequence("")});
    // Non-multiple-of-four tail exercises the scalar remainder.
    pairs.push_back(gen.pair(70, 0.1));

    std::vector<simd::BatchLane> lanes(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i)
        lanes[i].pair = &pairs[i];
    KernelContext ctx;
    simd::bpmDistanceBatchLanes(lanes, ctx);
    for (size_t i = 0; i < pairs.size(); ++i) {
        ASSERT_TRUE(lanes[i].status.ok()) << "pair " << i;
        EXPECT_EQ(lanes[i].distance,
                  bpmDistance(pairs[i].pattern, pairs[i].text))
            << "pair " << i << " n=" << pairs[i].pattern.size()
            << " m=" << pairs[i].text.size();
    }
}

TEST(Bpm, CountsAreAccumulated)
{
    seq::Generator gen(59);
    const auto pair = gen.pair(200, 0.05);
    KernelCounts counts;
    KernelContext ctx(CancelToken{}, &counts);
    bpmDistance(pair.pattern, pair.text, ctx);
    // 200x~200 cells; block count = ceil(n/64), ~17 ALU ops per block/char.
    EXPECT_GT(counts.cells, 30000u);
    EXPECT_GT(counts.alu, counts.cells / 64 * 17 / 2);
    EXPECT_GT(counts.loads, 0u);
    EXPECT_GT(counts.stores, 0u);
    EXPECT_EQ(counts.gmx_ac, 0u);

    KernelCounts align_counts;
    KernelContext align_ctx(CancelToken{}, &align_counts);
    bpmAlign(pair.pattern, pair.text, align_ctx);
    // The traceback variant writes the column history: more stores.
    EXPECT_GT(align_counts.stores, counts.stores);
}

} // namespace
} // namespace gmx::align

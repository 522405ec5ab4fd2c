/**
 * @file
 * Pinned work counters and CIGARs of the GMX aligners.
 *
 * The performance model (sim/, bench/fig*, tab*, ablation_*) prices the
 * KernelCounts the aligners report, and the serving path returns their
 * CIGARs. Both must stay fixed while the functional GmxUnit emulation is
 * optimised, so the exact values are pinned here: any change to the
 * charging or to the traceback's tie-breaking shows up as a diff.
 */

#include <array>
#include <string>

#include <gtest/gtest.h>

#include "gmx/banded.hh"
#include "gmx/full.hh"
#include "test_util.hh"

namespace gmx::core {
namespace {

using seq::SequencePair;

/** The seven KernelCounts fields, in declaration order. */
std::array<u64, 7>
fields(const KernelCounts &c)
{
    return {c.cells, c.alu, c.loads, c.stores, c.gmx_ac, c.gmx_tb, c.csr};
}

/** 64-bit FNV-1a, folding a run of results into one pinned value. */
u64
fnv(u64 h, const std::string &s)
{
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr u64 kFnvBasis = 0xcbf29ce484222325ull;

/** Two seeded pairs: 300 bp @15% and 150 bp @2% (partial edge tiles). */
SequencePair
pinnedPair(int which)
{
    seq::Generator gen(which == 0 ? 9001 : 9002);
    return which == 0 ? gen.pair(300, 0.15) : gen.pair(150, 0.02);
}

struct FullPin
{
    std::array<u64, 7> distance;
    std::array<u64, 7> align;
};

TEST(GmxCountsPin, FullGmxKernelCounts)
{
    const FullPin pins[2] = {
        {{90000, 400, 200, 200, 200, 0, 110},
         {90000, 528, 232, 232, 200, 16, 143}},
        {{22500, 100, 50, 50, 50, 0, 30}, {22500, 156, 64, 64, 50, 7, 45}},
    };
    for (int which = 0; which < 2; ++which) {
        const SequencePair pair = pinnedPair(which);
        KernelCounts dist_counts;
        KernelContext dist_ctx(CancelToken{}, &dist_counts);
        fullGmxDistance(pair.pattern, pair.text, 32, dist_ctx);
        EXPECT_EQ(fields(dist_counts), pins[which].distance) << which;

        KernelCounts align_counts;
        KernelContext align_ctx(CancelToken{}, &align_counts);
        fullGmxAlign(pair.pattern, pair.text, 32, align_ctx);
        EXPECT_EQ(fields(align_counts), pins[which].align) << which;
    }
}

struct BandedPin
{
    std::array<u64, 7> cigar;
    std::array<u64, 7> distance_only;
    std::array<u64, 7> bound_miss;
};

TEST(GmxCountsPin, BandedGmxKernelCounts)
{
    const BandedPin pins[2] = {
        {{74640, 608, 192, 192, 160, 16, 123},
         {74640, 480, 160, 160, 160, 0, 90},
         {41616, 264, 88, 88, 88, 0, 54}},
        {{22500, 206, 64, 64, 50, 7, 45},
         {22500, 150, 50, 50, 50, 0, 30},
         {17636, 114, 38, 38, 38, 0, 24}},
    };
    for (int which = 0; which < 2; ++which) {
        const SequencePair pair = pinnedPair(which);
        auto run = [&](i64 k, bool want_cigar) {
            KernelCounts counts;
            KernelContext ctx(CancelToken{}, &counts);
            const auto res = bandedGmxAlign(pair.pattern, pair.text, k,
                                            want_cigar, 32, true, ctx);
            return std::make_pair(res.found(), fields(counts));
        };
        const auto with_cigar = run(96, true);
        EXPECT_TRUE(with_cigar.first);
        EXPECT_EQ(with_cigar.second, pins[which].cigar) << which;
        const auto distance_only = run(96, false);
        EXPECT_TRUE(distance_only.first);
        EXPECT_EQ(distance_only.second, pins[which].distance_only) << which;
        // A band exactly as wide as the length skew: the path needs more
        // edits, so the distance exceeds k and the bound check rejects it.
        const i64 skew = static_cast<i64>(pair.pattern.size()) -
                         static_cast<i64>(pair.text.size());
        const auto miss = run(skew < 0 ? -skew : skew, true);
        EXPECT_FALSE(miss.first);
        EXPECT_EQ(miss.second, pins[which].bound_miss) << which;
    }
}

TEST(GmxCountsPin, UnitCensusOfAScriptedTileSequence)
{
    // gmx.v/gmx.h pairs on shared and fresh operands, CSR reloads between
    // them, and a traceback: the census counts one per instruction.
    seq::Generator gen(9003);
    GmxUnit unit(32);
    const auto p = gen.random(64);
    const auto t = gen.random(64);
    DeltaVec dv = DeltaVec::ones(32), dh = DeltaVec::ones(32);
    for (int rep = 0; rep < 4; ++rep) {
        unit.csrwPattern(p.codes().data() + 32 * (rep & 1), 32);
        unit.csrwText(t.codes().data() + 32 * (rep >> 1), 32);
        const DeltaVec v = unit.gmxV(dv, dh);
        const DeltaVec h = unit.gmxH(dv, dh);
        unit.gmxH(dv, dh);
        unit.csrwText(t.codes().data(), 32);
        unit.gmxV(dv, dh);
        dv = v;
        dh = h;
    }
    unit.csrwPos({TracebackPos::Edge::Bottom, 31});
    unit.gmxTb(dv, dh);
    unit.csrrPos();
    const GmxInstrCounts &c = unit.counts();
    EXPECT_EQ(c.gmx_v, 8u);
    EXPECT_EQ(c.gmx_h, 8u);
    EXPECT_EQ(c.gmx_vh, 0u);
    EXPECT_EQ(c.gmx_tb, 1u);
    EXPECT_EQ(c.csr_read, 1u);
    EXPECT_EQ(c.csr_write, 13u);
}

TEST(GmxCountsPin, CigarsOverTheStandardGrid)
{
    // Every CIGAR of the differential-test grid, at tile sizes covering
    // odd, tiny, the design point and the full word, folded into one
    // value per aligner. The exact banded driver reproduces gmx-full's
    // CIGARs, so the two values coincide.
    u64 full = kFnvBasis, banded = kFnvBasis;
    for (const auto &params : test::standardGrid()) {
        const SequencePair pair = test::makePair(params);
        for (unsigned tile : {2u, 3u, 7u, 32u, 64u}) {
            full = fnv(full,
                       fullGmxAlign(pair.pattern, pair.text, tile).cigar.str());
            banded = fnv(banded, bandedGmxAuto(pair.pattern, pair.text, true,
                                               4, tile)
                                     .cigar.str());
        }
    }
    EXPECT_EQ(full, 11169573323819796912ull);
    EXPECT_EQ(banded, 11169573323819796912ull);
}

} // namespace
} // namespace gmx::core

/**
 * @file
 * Tests for the GMX ISA unit: CSR semantics, instruction behaviour,
 * gmx.tb encoding, and the Fig. 6 worked example.
 */

#include <gtest/gtest.h>

#include "align/nw.hh"
#include "common/logging.hh"
#include "gmx/isa.hh"
#include "sequence/generator.hh"

namespace gmx::core {
namespace {

using align::Op;

TEST(GmxUnit, RejectsBadTileSize)
{
    EXPECT_THROW(GmxUnit(1), FatalError);
    EXPECT_THROW(GmxUnit(65), FatalError);
    EXPECT_NO_THROW(GmxUnit(2));
    EXPECT_NO_THROW(GmxUnit(64));
}

TEST(GmxUnit, GmxVHMatchTileKernel)
{
    seq::Generator gen(31);
    GmxUnit unit(32);
    for (int rep = 0; rep < 20; ++rep) {
        const auto p = gen.random(32);
        const auto t = gen.random(32);
        unit.csrwPattern(p.codes().data(), 32);
        unit.csrwText(t.codes().data(), 32);
        DeltaVec dv_in, dh_in;
        for (unsigned r = 0; r < 32; ++r) {
            dv_in.set(r, static_cast<int>(gen.prng().below(3)) - 1);
            dh_in.set(r, static_cast<int>(gen.prng().below(3)) - 1);
        }
        TileInput in;
        in.pattern = p.codes().data();
        in.tp = 32;
        in.text = t.codes().data();
        in.tt = 32;
        in.dv_in = dv_in;
        in.dh_in = dh_in;
        const TileOutput expect = tileCompute(in);
        EXPECT_EQ(unit.gmxV(dv_in, dh_in), expect.dv_out);
        EXPECT_EQ(unit.gmxH(dv_in, dh_in), expect.dh_out);
    }
}

TEST(GmxUnit, PackedVariantsMatchUnpacked)
{
    seq::Generator gen(37);
    GmxUnit unit(32);
    const auto p = gen.random(32);
    const auto t = gen.random(32);
    unit.csrwPattern(p.codes().data(), 32);
    unit.csrwText(t.codes().data(), 32);
    DeltaVec dv_in = DeltaVec::ones(32);
    DeltaVec dh_in;
    dh_in.set(3, -1);
    dh_in.set(17, 1);
    const u64 rv = unit.gmxVPacked(packDelta(dv_in, 32), packDelta(dh_in, 32));
    const u64 rh = unit.gmxHPacked(packDelta(dv_in, 32), packDelta(dh_in, 32));
    EXPECT_EQ(unpackDelta(rv, 32), unit.gmxV(dv_in, dh_in));
    EXPECT_EQ(unpackDelta(rh, 32), unit.gmxH(dv_in, dh_in));
}

TEST(GmxUnit, MergedVhMatchesSplitPair)
{
    seq::Generator gen(42);
    GmxUnit unit(32);
    for (int rep = 0; rep < 10; ++rep) {
        const auto p = gen.random(32);
        const auto t = gen.random(32);
        unit.csrwPattern(p.codes().data(), 32);
        unit.csrwText(t.codes().data(), 32);
        DeltaVec dv, dh;
        for (unsigned r = 0; r < 32; ++r) {
            dv.set(r, static_cast<int>(gen.prng().below(3)) - 1);
            dh.set(r, static_cast<int>(gen.prng().below(3)) - 1);
        }
        const TileOutput merged = unit.gmxVH(dv, dh);
        EXPECT_EQ(merged.dv_out, unit.gmxV(dv, dh));
        EXPECT_EQ(merged.dh_out, unit.gmxH(dv, dh));
    }
    EXPECT_EQ(unit.counts().gmx_vh, 10u);
}

TEST(GmxUnit, InstructionCensus)
{
    seq::Generator gen(41);
    GmxUnit unit(16);
    const auto p = gen.random(16);
    const auto t = gen.random(16);
    unit.csrwPattern(p.codes().data(), 16);
    unit.csrwText(t.codes().data(), 16);
    unit.gmxV(DeltaVec::ones(16), DeltaVec::ones(16));
    unit.gmxH(DeltaVec::ones(16), DeltaVec::ones(16));
    unit.csrwPos({TracebackPos::Edge::Bottom, 15});
    unit.gmxTb(DeltaVec::ones(16), DeltaVec::ones(16));
    const auto &c = unit.counts();
    EXPECT_EQ(c.gmx_v, 1u);
    EXPECT_EQ(c.gmx_h, 1u);
    EXPECT_EQ(c.gmx_tb, 1u);
    EXPECT_EQ(c.csr_write, 3u);
    unit.resetCounts();
    EXPECT_EQ(unit.counts().gmx_v, 0u);
}

/** Two random 32-character chunks of each side and random operands. */
struct ReuseCase
{
    seq::Sequence p, t, p2, t2;
    DeltaVec dv, dh;

    explicit ReuseCase(seq::Generator &gen)
        : p(gen.random(32)), t(gen.random(32)), p2(gen.random(32)),
          t2(gen.random(32))
    {
        for (unsigned r = 0; r < 32; ++r) {
            dv.set(r, static_cast<int>(gen.prng().below(3)) - 1);
            dh.set(r, static_cast<int>(gen.prng().below(3)) - 1);
        }
    }

    static TileOutput
    expect(const seq::Sequence &pat, const seq::Sequence &txt,
           const DeltaVec &dv_in, const DeltaVec &dh_in)
    {
        TileInput in;
        in.pattern = pat.codes().data();
        in.tp = 32;
        in.text = txt.codes().data();
        in.tt = 32;
        in.dv_in = dv_in;
        in.dh_in = dh_in;
        return tileCompute(in);
    }
};

TEST(GmxUnit, CsrChunkWriteBetweenVAndHRecomputes)
{
    seq::Generator gen(53);
    for (int rep = 0; rep < 10; ++rep) {
        const ReuseCase k(gen);
        GmxUnit unit(32);
        unit.csrwPattern(k.p.codes().data(), 32);
        unit.csrwText(k.t.codes().data(), 32);
        EXPECT_EQ(unit.gmxV(k.dv, k.dh),
                  ReuseCase::expect(k.p, k.t, k.dv, k.dh).dv_out);
        unit.csrwPattern(k.p2.codes().data(), 32);
        EXPECT_EQ(unit.gmxH(k.dv, k.dh),
                  ReuseCase::expect(k.p2, k.t, k.dv, k.dh).dh_out);
        // The register form of csrw gmx_text invalidates the tile too.
        unit.csrwTextPacked(0, 32);
        const seq::Sequence all_a(std::string(32, 'A')); // code 0
        EXPECT_EQ(unit.gmxV(k.dv, k.dh),
                  ReuseCase::expect(k.p2, all_a, k.dv, k.dh).dv_out);
        unit.csrwText(k.t2.codes().data(), 32);
        EXPECT_EQ(unit.gmxVH(k.dv, k.dh).dh_out,
                  ReuseCase::expect(k.p2, k.t2, k.dv, k.dh).dh_out);
    }
}

TEST(GmxUnit, DifferentOperandsRecompute)
{
    seq::Generator gen(59);
    for (int rep = 0; rep < 10; ++rep) {
        const ReuseCase k(gen);
        const ReuseCase other(gen);
        GmxUnit unit(32);
        unit.csrwPattern(k.p.codes().data(), 32);
        unit.csrwText(k.t.codes().data(), 32);
        unit.gmxV(k.dv, k.dh);
        EXPECT_EQ(unit.gmxH(other.dv, k.dh),
                  ReuseCase::expect(k.p, k.t, other.dv, k.dh).dh_out);
        EXPECT_EQ(unit.gmxV(other.dv, other.dh),
                  ReuseCase::expect(k.p, k.t, other.dv, other.dh).dv_out);
        EXPECT_EQ(unit.gmxH(k.dv, k.dh),
                  ReuseCase::expect(k.p, k.t, k.dv, k.dh).dh_out);
    }
}

TEST(GmxUnit, HThenVMatchesVThenH)
{
    seq::Generator gen(61);
    for (int rep = 0; rep < 10; ++rep) {
        const ReuseCase k(gen);
        GmxUnit vh(32), hv(32);
        for (GmxUnit *unit : {&vh, &hv}) {
            unit->csrwPattern(k.p.codes().data(), 32);
            unit->csrwText(k.t.codes().data(), 32);
        }
        const DeltaVec v1 = vh.gmxV(k.dv, k.dh);
        const DeltaVec h1 = vh.gmxH(k.dv, k.dh);
        const DeltaVec h2 = hv.gmxH(k.dv, k.dh);
        const DeltaVec v2 = hv.gmxV(k.dv, k.dh);
        const TileOutput want = ReuseCase::expect(k.p, k.t, k.dv, k.dh);
        EXPECT_EQ(v1, want.dv_out);
        EXPECT_EQ(v2, want.dv_out);
        EXPECT_EQ(h1, want.dh_out);
        EXPECT_EQ(h2, want.dh_out);
    }
}

TEST(GmxUnit, ReusedTileStillCountsEveryInstruction)
{
    seq::Generator gen(67);
    const ReuseCase k(gen);
    GmxUnit unit(32);
    unit.csrwPattern(k.p.codes().data(), 32);
    unit.csrwText(k.t.codes().data(), 32);
    unit.gmxV(k.dv, k.dh);
    unit.gmxH(k.dv, k.dh);
    unit.gmxH(k.dv, k.dh);
    unit.gmxV(k.dv, k.dh);
    unit.gmxVH(k.dv, k.dh);
    const auto &c = unit.counts();
    EXPECT_EQ(c.gmx_v, 2u);
    EXPECT_EQ(c.gmx_h, 2u);
    EXPECT_EQ(c.gmx_vh, 1u);
    EXPECT_EQ(c.csr_write, 2u);
}

TEST(GmxUnit, Figure6WorkedExample)
{
    // Pattern "GATT" vs text "GCAT" with one 4x4 tile: distance 2 and a
    // traceback following the CCTB priority (M, D, I, X) yields "MDMIM".
    const seq::Sequence p("GATT"), t("GCAT");
    GmxUnit unit(4);
    unit.csrwPattern(p.codes().data(), 4);
    unit.csrwText(t.codes().data(), 4);
    unit.csrwPos({TracebackPos::Edge::Bottom, 3});
    const TracebackStep step =
        unit.gmxTb(DeltaVec::ones(4), DeltaVec::ones(4));
    // The walk emits ops backwards (from the bottom-right corner).
    std::string backward;
    for (Op op : step.ops)
        backward.push_back(align::opChar(op));
    EXPECT_EQ(backward, "MIMDM");
    EXPECT_EQ(step.next, NextTile::Diag); // left through the tile corner
}

TEST(GmxUnit, TracebackEncodingRoundTrip)
{
    // The gmx_lo/gmx_hi CSRs must encode the same ops the decoded
    // TracebackStep reports, with the next-tile field in the top bits.
    seq::Generator gen(43);
    GmxUnit unit(8);
    const auto p = gen.random(8);
    const auto t = gen.mutate(p, 0.3);
    if (t.size() < 8)
        return;
    unit.csrwPattern(p.codes().data(), 8);
    unit.csrwText(t.codes().data(), 8);
    unit.csrwPos({TracebackPos::Edge::Bottom, 7});
    const TracebackStep step = unit.gmxTb(DeltaVec::ones(8),
                                          DeltaVec::ones(8));
    const u64 lo = unit.csrrLo();
    const u64 hi = unit.csrrHi();
    for (size_t k = 0; k < step.ops.size(); ++k) {
        const u64 code = k < 8 ? (lo >> (2 * k)) & 3
                               : (hi >> (2 * (k - 8))) & 3;
        EXPECT_EQ(code, static_cast<u64>(step.ops[k])) << k;
    }
    EXPECT_EQ((hi >> 14) & 3, static_cast<u64>(step.next));
}

TEST(GmxUnit, TracebackFromRightEdge)
{
    // Entering a tile from the right edge (pos = Right, row r) must start
    // the walk at cell (r, tt-1).
    const seq::Sequence p("AAAA"), t("AAAA");
    GmxUnit unit(4);
    unit.csrwPattern(p.codes().data(), 4);
    unit.csrwText(t.codes().data(), 4);
    unit.csrwPos({TracebackPos::Edge::Right, 1});
    const TracebackStep step =
        unit.gmxTb(DeltaVec::ones(4), DeltaVec::ones(4));
    // All-equal characters: two diagonal matches then exit at the top
    // (rows run out before columns).
    EXPECT_EQ(step.ops.size(), 2u);
    EXPECT_EQ(step.ops[0], Op::Match);
    EXPECT_EQ(step.next, NextTile::Up);
    EXPECT_EQ(step.next_pos.edge, TracebackPos::Edge::Bottom);
    EXPECT_EQ(step.next_pos.index, 1u);
}

TEST(GmxUnit, TracebackLengthBound)
{
    // At most one op per antidiagonal: 2T-1 ops.
    seq::Generator gen(47);
    for (int rep = 0; rep < 30; ++rep) {
        GmxUnit unit(32);
        const auto p = gen.random(32);
        const auto t = gen.random(32);
        unit.csrwPattern(p.codes().data(), 32);
        unit.csrwText(t.codes().data(), 32);
        unit.csrwPos({TracebackPos::Edge::Bottom, 31});
        const TracebackStep step =
            unit.gmxTb(DeltaVec::ones(32), DeltaVec::ones(32));
        EXPECT_LE(step.ops.size(), 63u);
        EXPECT_GE(step.ops.size(), 1u);
    }
}

TEST(GmxUnit, PartialTileOperands)
{
    // Chunks shorter than T model the matrix edge tiles.
    const seq::Sequence p("GAT"), t("GC");
    GmxUnit unit(32);
    unit.csrwPattern(p.codes().data(), 3);
    unit.csrwText(t.codes().data(), 2);
    const DeltaVec dv = unit.gmxV(DeltaVec::ones(3), DeltaVec::ones(2));
    // D[i][2] for i=1..3: with pattern GAT vs text GC: D row values:
    // D[1][2]=1, D[2][2]=1, D[3][2]=2 -> dv = (1-2)=-1, 0, +1.
    EXPECT_EQ(dv.at(0), -1);
    EXPECT_EQ(dv.at(1), 0);
    EXPECT_EQ(dv.at(2), 1);
}

} // namespace
} // namespace gmx::core

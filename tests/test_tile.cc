/**
 * @file
 * Tests for the GMX-Tile kernel: bit-parallel vs scalar cross-check, both
 * against deltas extracted from the NW reference matrix, and the word-form
 * GMX-TB recompute against a walk over the materialised interior.
 */

#include <gtest/gtest.h>

#include "align/nw.hh"
#include "gmx/isa.hh"
#include "gmx/tile.hh"
#include "sequence/generator.hh"

namespace gmx::core {
namespace {

/** Tile inputs/expected outputs extracted from the NW matrix of a pair. */
struct NwTileOracle
{
    std::vector<std::vector<i64>> d; // full DP matrix (n+1) x (m+1)

    NwTileOracle(const seq::Sequence &p, const seq::Sequence &t)
    {
        for (size_t i = 0; i <= p.size(); ++i)
            d.push_back(align::nwMatrixRow(p, t, i));
    }

    /** dv of cell (i, j), 1-based. */
    int dv(size_t i, size_t j) const
    {
        return static_cast<int>(d[i][j] - d[i - 1][j]);
    }

    int dh(size_t i, size_t j) const
    {
        return static_cast<int>(d[i][j] - d[i][j - 1]);
    }

    /** Build the TileInput for the tile at rows [i0+1..i0+tp], cols
     * [j0+1..j0+tt]. */
    TileInput
    input(const seq::Sequence &p, const seq::Sequence &t, size_t i0,
          size_t j0, unsigned tp, unsigned tt) const
    {
        TileInput in;
        in.pattern = p.codes().data() + i0;
        in.tp = tp;
        in.text = t.codes().data() + j0;
        in.tt = tt;
        for (unsigned r = 0; r < tp; ++r)
            in.dv_in.set(r, dv(i0 + 1 + r, j0));
        for (unsigned c = 0; c < tt; ++c)
            in.dh_in.set(c, dh(i0, j0 + 1 + c));
        return in;
    }
};

// dv(i, 0) = +1 and dh(0, j) = +1 boundaries are implicit in the oracle
// because D[i][0] = i and D[0][j] = j.

TEST(Tile, ScalarMatchesNwOracleOnWholeMatrixTiles)
{
    seq::Generator gen(11);
    for (unsigned t : {2u, 4u, 8u, 16u, 32u}) {
        const auto p = gen.random(t);
        const auto txt = gen.mutate(p, 0.2);
        if (txt.size() < t || txt.empty())
            continue;
        NwTileOracle oracle(p, txt);
        const TileInput in = oracle.input(p, txt, 0, 0, t,
                                          std::min<unsigned>(
                                              t, static_cast<unsigned>(
                                                     txt.size())));
        const TileOutput out = tileComputeScalar(in);
        for (unsigned r = 0; r < in.tp; ++r)
            EXPECT_EQ(out.dv_out.at(r), oracle.dv(1 + r, in.tt)) << r;
        for (unsigned c = 0; c < in.tt; ++c)
            EXPECT_EQ(out.dh_out.at(c), oracle.dh(in.tp, 1 + c)) << c;
    }
}

TEST(Tile, BitParallelMatchesScalarOnRandomTiles)
{
    seq::Generator gen(13);
    for (int rep = 0; rep < 200; ++rep) {
        const unsigned tp = 1 + static_cast<unsigned>(gen.prng().below(64));
        const unsigned tt = 1 + static_cast<unsigned>(gen.prng().below(64));
        const auto p = gen.random(tp);
        const auto t = gen.random(tt);
        TileInput in;
        in.pattern = p.codes().data();
        in.tp = tp;
        in.text = t.codes().data();
        in.tt = tt;
        // Purely random edge deltas, including combinations no real DP
        // matrix produces: the two kernels must agree on those too.
        for (unsigned r = 0; r < tp; ++r)
            in.dv_in.set(r, static_cast<int>(gen.prng().below(3)) - 1);
        for (unsigned c = 0; c < tt; ++c)
            in.dh_in.set(c, static_cast<int>(gen.prng().below(3)) - 1);
        const TileOutput a = tileCompute(in);
        const TileOutput b = tileComputeScalar(in);
        EXPECT_EQ(a.dv_out, b.dv_out) << "tp=" << tp << " tt=" << tt;
        EXPECT_EQ(a.dh_out, b.dh_out) << "tp=" << tp << " tt=" << tt;
    }
}

TEST(Tile, InteriorTilesOfRealMatrix)
{
    // Every interior tile of a 96x96 matrix, checked against the oracle,
    // for several tile sizes including non-powers of two.
    seq::Generator gen(17);
    const auto p = gen.random(96);
    const auto t = gen.mutate(p, 0.15);
    NwTileOracle oracle(p, t);
    for (unsigned ts : {2u, 3u, 5u, 8u, 16u, 32u}) {
        for (size_t i0 = 0; i0 + ts <= p.size(); i0 += ts) {
            for (size_t j0 = 0; j0 + ts <= t.size(); j0 += ts) {
                const TileInput in = oracle.input(p, t, i0, j0, ts, ts);
                const TileOutput out = tileCompute(in);
                for (unsigned r = 0; r < ts; ++r) {
                    ASSERT_EQ(out.dv_out.at(r), oracle.dv(i0 + 1 + r,
                                                          j0 + ts))
                        << "ts=" << ts << " i0=" << i0 << " j0=" << j0;
                }
                for (unsigned c = 0; c < ts; ++c) {
                    ASSERT_EQ(out.dh_out.at(c), oracle.dh(i0 + ts,
                                                          j0 + 1 + c))
                        << "ts=" << ts << " i0=" << i0 << " j0=" << j0;
                }
            }
        }
    }
}

TEST(Tile, InteriorDeltasMatchOracle)
{
    seq::Generator gen(19);
    const auto p = gen.random(32);
    const auto t = gen.mutate(p, 0.2);
    if (t.size() < 32)
        return;
    NwTileOracle oracle(p, t);
    const TileInput in = oracle.input(p, t, 0, 0, 32, 32);
    const TileInterior interior = tileInterior(in);
    for (unsigned r = 0; r < 32; ++r) {
        for (unsigned c = 0; c < 32; ++c) {
            EXPECT_EQ(interior.dvAt(r, c), oracle.dv(r + 1, c + 1));
            EXPECT_EQ(interior.dhAt(r, c), oracle.dh(r + 1, c + 1));
        }
    }
}

TEST(Tile, PaperFigure6Deltas)
{
    // The worked example of Fig. 6: pattern "GATT", text "GCAT", one 4x4
    // tile with boundary inputs. The resulting bottom-row dh must sum to
    // distance - n... D[4][4] = 4 + sum(dh row 4) => sum = -2.
    const seq::Sequence p("GATT"), t("GCAT");
    TileInput in;
    in.pattern = p.codes().data();
    in.tp = 4;
    in.text = t.codes().data();
    in.tt = 4;
    in.dv_in = DeltaVec::ones(4);
    in.dh_in = DeltaVec::ones(4);
    const TileOutput out = tileCompute(in);
    EXPECT_EQ(4 + out.dh_out.sum(4), 2); // the known edit distance
    // Right edge: D[i][4] for i=1..4 is 3,2,1,2 -> dv = -1? no:
    // dv(i,4) = D[i][4] - D[i-1][4]: 3-4=-1, 2-3=-1, 1-2=-1, 2-1=+1.
    EXPECT_EQ(out.dv_out.at(0), -1);
    EXPECT_EQ(out.dv_out.at(1), -1);
    EXPECT_EQ(out.dv_out.at(2), -1);
    EXPECT_EQ(out.dv_out.at(3), 1);
}

TEST(Tile, SingleCellTile)
{
    const seq::Sequence p("A"), t("A");
    TileInput in;
    in.pattern = p.codes().data();
    in.tp = 1;
    in.text = t.codes().data();
    in.tt = 1;
    in.dv_in = DeltaVec::ones(1);
    in.dh_in = DeltaVec::ones(1);
    const TileOutput out = tileCompute(in);
    // D[1][1] = 0: dv = 0 - 1 = -1, dh = -1.
    EXPECT_EQ(out.dv_out.at(0), -1);
    EXPECT_EQ(out.dh_out.at(0), -1);
}

TEST(Tile, FullWordTile)
{
    // T = 64 uses every bit of the word including the sign bit.
    seq::Generator gen(23);
    const auto p = gen.random(64);
    const auto t = gen.mutate(p, 0.1);
    if (t.size() < 64)
        return;
    NwTileOracle oracle(p, t);
    const TileInput in = oracle.input(p, t, 0, 0, 64, 64);
    const TileOutput fast = tileCompute(in);
    const TileOutput ref = tileComputeScalar(in);
    EXPECT_EQ(fast.dv_out, ref.dv_out);
    EXPECT_EQ(fast.dh_out, ref.dh_out);
    for (unsigned r = 0; r < 64; ++r)
        EXPECT_EQ(fast.dv_out.at(r), oracle.dv(1 + r, 64));
}

/**
 * The GMX-TB reference: the CCTB priority walk (M, then D, I, X) over the
 * cell-by-cell interior, with the same exit classification as gmx.tb.
 */
TracebackStep
interiorWalk(const TileInput &in, const TracebackPos &start, unsigned t)
{
    const TileInterior interior = tileInterior(in);
    int r, c;
    if (start.edge == TracebackPos::Edge::Bottom) {
        r = static_cast<int>(in.tp) - 1;
        c = static_cast<int>(start.index);
    } else {
        r = static_cast<int>(start.index);
        c = static_cast<int>(in.tt) - 1;
    }
    TracebackStep step;
    while (r >= 0 && c >= 0) {
        if (in.pattern[r] == in.text[c]) {
            step.ops.push_back(align::Op::Match);
            --r;
            --c;
        } else if (interior.dhAt(r, c) == 1) {
            step.ops.push_back(align::Op::Deletion);
            --c;
        } else if (interior.dvAt(r, c) == 1) {
            step.ops.push_back(align::Op::Insertion);
            --r;
        } else {
            step.ops.push_back(align::Op::Mismatch);
            --r;
            --c;
        }
    }
    if (r < 0 && c < 0) {
        step.next = NextTile::Diag;
        step.next_pos = {TracebackPos::Edge::Bottom, t - 1};
    } else if (r < 0) {
        step.next = NextTile::Up;
        step.next_pos = {TracebackPos::Edge::Bottom,
                         static_cast<unsigned>(c)};
    } else {
        step.next = NextTile::Left;
        step.next_pos = {TracebackPos::Edge::Right,
                         static_cast<unsigned>(r)};
    }
    return step;
}

/**
 * Check tileColumns against the interior cell by cell, then gmx.tb from
 * every bottom- and right-edge start against the interior walk.
 */
void
expectTracebackMatchesInterior(const TileInput &in, unsigned t)
{
    const TileInterior interior = tileInterior(in);
    ColumnWords cols[kMaxTile];
    tileColumns(in, in.tt, cols);
    for (unsigned c = 0; c < in.tt; ++c) {
        const DeltaVec dv{cols[c].pv, cols[c].mv};
        const DeltaVec dh{cols[c].ph, cols[c].mh};
        for (unsigned r = 0; r < in.tp; ++r) {
            ASSERT_EQ(dv.at(r), interior.dvAt(r, c))
                << "T=" << t << " r=" << r << " c=" << c;
            ASSERT_EQ(dh.at(r), interior.dhAt(r, c))
                << "T=" << t << " r=" << r << " c=" << c;
        }
        const u64 above = ~DeltaVec::laneMask(in.tp);
        ASSERT_EQ((cols[c].pv | cols[c].mv | cols[c].ph | cols[c].mh) &
                      above,
                  0u);
    }

    GmxUnit unit(t);
    unit.csrwPattern(in.pattern, in.tp);
    unit.csrwText(in.text, in.tt);
    std::vector<TracebackPos> starts;
    for (unsigned c = 0; c < in.tt; ++c)
        starts.push_back({TracebackPos::Edge::Bottom, c});
    for (unsigned r = 0; r < in.tp; ++r)
        starts.push_back({TracebackPos::Edge::Right, r});
    for (const TracebackPos &start : starts) {
        unit.csrwPos(start);
        const TracebackStep got = unit.gmxTb(in.dv_in, in.dh_in);
        const TracebackStep want = interiorWalk(in, start, t);
        const std::string where =
            "T=" + std::to_string(t) + " tp=" + std::to_string(in.tp) +
            " tt=" + std::to_string(in.tt) +
            (start.edge == TracebackPos::Edge::Bottom ? " bottom " : " right ") +
            std::to_string(start.index);
        ASSERT_EQ(got.ops.size(), want.ops.size()) << where;
        for (size_t k = 0; k < got.ops.size(); ++k)
            ASSERT_EQ(got.ops[k], want.ops[k]) << where << " op " << k;
        ASSERT_EQ(got.next, want.next) << where;
        ASSERT_EQ(got.next_pos, want.next_pos) << where;
    }
}

TEST(Tile, GmxTbMatchesInteriorWalkOnRandomEdges)
{
    // Every tile size, full and partial tiles, random edge deltas.
    seq::Generator gen(29);
    for (unsigned t = 2; t <= kMaxTile; ++t) {
        for (int rep = 0; rep < 4; ++rep) {
            const unsigned tp =
                rep == 0 ? t : 1 + static_cast<unsigned>(gen.prng().below(t));
            const unsigned tt =
                rep == 0 ? t : 1 + static_cast<unsigned>(gen.prng().below(t));
            const auto p = gen.random(tp);
            const auto txt = gen.random(tt);
            TileInput in;
            in.pattern = p.codes().data();
            in.tp = tp;
            in.text = txt.codes().data();
            in.tt = tt;
            for (unsigned r = 0; r < tp; ++r)
                in.dv_in.set(r, static_cast<int>(gen.prng().below(3)) - 1);
            for (unsigned c = 0; c < tt; ++c)
                in.dh_in.set(c, static_cast<int>(gen.prng().below(3)) - 1);
            expectTracebackMatchesInterior(in, t);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(Tile, GmxTbMatchesInteriorWalkOnNwEdges)
{
    // Edges cut from a real NW matrix at random offsets: the deltas a
    // traceback actually meets, for every tile size and partial shapes.
    seq::Generator gen(31);
    const auto p = gen.random(160);
    const auto txt = gen.mutate(p, 0.15);
    NwTileOracle oracle(p, txt);
    for (unsigned t = 2; t <= kMaxTile; ++t) {
        for (int rep = 0; rep < 3; ++rep) {
            const unsigned tp =
                rep == 0 ? t : 1 + static_cast<unsigned>(gen.prng().below(t));
            const unsigned tt =
                rep == 0 ? t : 1 + static_cast<unsigned>(gen.prng().below(t));
            const size_t i0 = gen.prng().below(p.size() - tp + 1);
            const size_t j0 = gen.prng().below(txt.size() - tt + 1);
            expectTracebackMatchesInterior(
                oracle.input(p, txt, i0, j0, tp, tt), t);
            if (HasFatalFailure())
                return;
        }
    }
}

} // namespace
} // namespace gmx::core

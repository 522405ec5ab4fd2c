/**
 * @file
 * Pieces shared by the Full(GMX) and Banded(GMX) drivers and the
 * gate-level RtlAligner: folding the GmxUnit census into KernelCounts,
 * and the tile-wise traceback of Algorithm 2. The walk from tile to
 * tile is the same everywhere; only the way one tile is traced differs
 * (a GmxUnit gmx.tb, or the GMX-TB netlist), so walkTiles takes that
 * per-tile step as a callable.
 */

#ifndef GMX_GMX_TRACEBACK_HH
#define GMX_GMX_TRACEBACK_HH

#include <algorithm>
#include <vector>

#include "align/cigar.hh"
#include "gmx/isa.hh"
#include "kernel/context.hh"
#include "sequence/sequence.hh"

namespace gmx::core {

/** Fold the GmxUnit's census into KernelCounts. */
inline void
foldUnitCounts(KernelCounts *counts, const GmxInstrCounts &unit)
{
    if (!counts)
        return;
    counts->gmx_ac += unit.gmx_v + unit.gmx_h;
    counts->gmx_tb += unit.gmx_tb;
    counts->csr += unit.csr_read + unit.csr_write;
}

/**
 * Algorithm 2's tile walk: trace the alignment path from D[n][m] back to
 * the origin, one tile step at a time, finishing along the matrix
 * boundary once the path reaches row or column 0.
 *
 * @p step(ti, tj) traces tile (ti, tj) of size @p t from the position
 * where the path entered it and returns its TracebackStep.
 */
template <typename TileStep>
align::Cigar
walkTiles(size_t n, size_t m, unsigned t, TileStep step)
{
    using align::Op;
    std::vector<Op> ops; // collected backwards (from (n, m) to origin)
    ops.reserve(n + m);
    size_t ai = n, aj = m; // absolute DP cell still to be reached
    size_t ti = (n - 1) / t, tj = (m - 1) / t;

    while (ai > 0 && aj > 0) {
        const TracebackStep tile = step(ti, tj);
        for (Op op : tile.ops) {
            ops.push_back(op);
            if (op != Op::Deletion)
                --ai;
            if (op != Op::Insertion)
                --aj;
            if (ai == 0 || aj == 0)
                break;
        }
        if (ai == 0 || aj == 0)
            break;
        switch (tile.next) {
          case NextTile::Diag:
            --ti;
            --tj;
            break;
          case NextTile::Up:
            --ti;
            break;
          case NextTile::Left:
            --tj;
            break;
        }
    }
    // Finish along the matrix boundary.
    for (; aj > 0; --aj)
        ops.push_back(Op::Deletion);
    for (; ai > 0; --ai)
        ops.push_back(Op::Insertion);

    std::reverse(ops.begin(), ops.end());
    return align::Cigar(std::move(ops));
}

/**
 * Algorithm 2 on a GmxUnit: one csrw pair plus one gmx.tb per tile.
 *
 * @p dv_input(ti, tj, tp) and @p dh_input(ti, tj, tt) return the left and
 * top input edges of tile (ti, tj) as the forward pass stored them.
 */
template <typename DvInput, typename DhInput>
align::Cigar
tileTraceback(GmxUnit &unit, const seq::Sequence &pattern,
              const seq::Sequence &text, KernelContext &ctx,
              DvInput dv_input, DhInput dh_input)
{
    const size_t n = pattern.size();
    const size_t m = text.size();
    const unsigned t = unit.tileSize();
    KernelCounts *counts = ctx.countsSink();

    // The path enters the last tile at the bottom edge's last column.
    unit.csrwPos({TracebackPos::Edge::Bottom,
                  static_cast<unsigned>(m - (m - 1) / t * t) - 1});
    return walkTiles(n, m, t, [&](size_t ti, size_t tj) {
        ctx.poll();
        const unsigned tp =
            static_cast<unsigned>(std::min<size_t>(t, n - ti * t));
        const unsigned tt =
            static_cast<unsigned>(std::min<size_t>(t, m - tj * t));
        unit.csrwPattern(pattern.codes().data() + ti * t, tp);
        unit.csrwText(text.codes().data() + tj * t, tt);
        const TracebackStep step =
            unit.gmxTb(dv_input(ti, tj, tp), dh_input(ti, tj, tt));
        if (counts) {
            counts->loads += 2;
            counts->stores += 2; // gmx_lo/gmx_hi spilled to the output
            counts->alu += 8;
        }
        return step;
    });
}

} // namespace gmx::core

#endif // GMX_GMX_TRACEBACK_HH

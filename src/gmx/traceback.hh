/**
 * @file
 * Pieces shared by the Full(GMX) and Banded(GMX) drivers: folding the
 * GmxUnit census into KernelCounts, and the tile-wise traceback of
 * Algorithm 2. The drivers differ only in where a tile's input edges are
 * stored, so the walk takes the two edge lookups as callables.
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
 * Algorithm 2: trace the alignment path from D[n][m] back to the origin,
 * one gmx.tb per tile, finishing along the matrix boundary once the path
 * reaches row or column 0.
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
    using align::Op;
    const size_t n = pattern.size();
    const size_t m = text.size();
    const unsigned t = unit.tileSize();
    KernelCounts *counts = ctx.countsSink();

    std::vector<Op> ops; // collected backwards (from (n, m) to origin)
    ops.reserve(n + m);
    size_t ai = n, aj = m; // absolute DP cell still to be reached
    size_t ti = (n - 1) / t, tj = (m - 1) / t;
    unit.csrwPos({TracebackPos::Edge::Bottom,
                  static_cast<unsigned>(m - tj * t) - 1});

    while (ai > 0 && aj > 0) {
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
        for (Op op : step.ops) {
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
        switch (step.next) {
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

} // namespace gmx::core

#endif // GMX_GMX_TRACEBACK_HH

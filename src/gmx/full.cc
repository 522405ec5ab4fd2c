#include "gmx/full.hh"

#include <algorithm>
#include <span>

#include "common/logging.hh"
#include "gmx/traceback.hh"

namespace gmx::core {

namespace {

using align::AlignResult;
using align::Op;

/** Tile-grid geometry for an n x m matrix at tile size T. */
struct Grid
{
    unsigned t;
    size_t rows;
    size_t cols;
    size_t n;
    size_t m;

    Grid(size_t n_, size_t m_, unsigned t_)
        : t(t_), rows((n_ + t_ - 1) / t_), cols((m_ + t_ - 1) / t_), n(n_),
          m(m_)
    {}

    /** Height of tile row @p ti (partial on the last row). */
    unsigned
    tileHeight(size_t ti) const
    {
        return static_cast<unsigned>(
            std::min<size_t>(t, n - ti * t));
    }

    unsigned
    tileWidth(size_t tj) const
    {
        return static_cast<unsigned>(
            std::min<size_t>(t, m - tj * t));
    }
};

/** Driver-side cost bookkeeping for one computed tile (Algorithm 1). */
void
chargeTile(KernelCounts *counts, unsigned tp, unsigned tt)
{
    if (!counts)
        return;
    counts->cells += static_cast<u64>(tp) * tt;
    counts->loads += 2;  // dv_in, dh_in from the edge matrix
    counts->stores += 2; // dv_out, dh_out into the edge matrix
    counts->alu += 4;    // tight inner loop: control + addressing
}

AlignResult
trivialEmptyAlign(size_t n, size_t m, bool want_cigar)
{
    AlignResult res;
    res.distance = static_cast<i64>(n + m);
    if (want_cigar) {
        res.cigar.push(Op::Deletion, m);
        res.cigar.push(Op::Insertion, n);
        res.has_cigar = true;
    }
    return res;
}

} // namespace

i64
fullGmxDistance(const seq::Sequence &pattern, const seq::Sequence &text,
                unsigned tile, KernelContext &ctx)
{
    const size_t n = pattern.size();
    const size_t m = text.size();
    if (n == 0 || m == 0)
        return static_cast<i64>(n + m);

    ctx.beginSetup();
    ScratchArena::Frame frame(ctx.arena());
    GmxUnit unit(tile);
    const Grid g(n, m, tile);
    KernelCounts *counts = ctx.countsSink();

    // Rolling storage: right edges of the previous tile column (one per
    // tile row) and the bottom edge chain of the current tile column.
    std::span<DeltaVec> right = ctx.arena().rowsUninit<DeltaVec>(g.rows);

    ctx.beginKernel();
    i64 distance = static_cast<i64>(n); // D[n][0]
    for (size_t tj = 0; tj < g.cols; ++tj) {
        const unsigned tt = g.tileWidth(tj);
        unit.csrwText(text.codes().data() + tj * g.t, tt);
        DeltaVec dh = DeltaVec::ones(tt); // top boundary of this column
        for (size_t ti = 0; ti < g.rows; ++ti) {
            ctx.poll();
            const unsigned tp = g.tileHeight(ti);
            unit.csrwPattern(pattern.codes().data() + ti * g.t, tp);
            const DeltaVec dv_in =
                tj == 0 ? DeltaVec::ones(tp) : right[ti];
            right[ti] = unit.gmxV(dv_in, dh);
            dh = unit.gmxH(dv_in, dh);
            chargeTile(counts, tp, tt);
        }
        distance += dh.sum(tt); // bottom-row horizontal deltas
    }
    foldUnitCounts(counts, unit.counts());
    ctx.donePhases();
    return distance;
}

i64
fullGmxDistance(const seq::Sequence &pattern, const seq::Sequence &text,
                unsigned tile)
{
    KernelContext ctx;
    return fullGmxDistance(pattern, text, tile, ctx);
}

align::AlignResult
fullGmxAlign(const seq::Sequence &pattern, const seq::Sequence &text,
             unsigned tile, KernelContext &ctx)
{
    const size_t n = pattern.size();
    const size_t m = text.size();
    if (n == 0 || m == 0)
        return trivialEmptyAlign(n, m, true);

    ctx.beginSetup();
    ScratchArena::Frame frame(ctx.arena());
    GmxUnit unit(tile);
    const Grid g(n, m, tile);
    KernelCounts *counts = ctx.countsSink();

    // The edge matrix M (Algorithm 1): per-tile output edge vectors.
    std::span<TileEdges> edges =
        ctx.arena().rowsUninit<TileEdges>(g.rows * g.cols);
    auto at = [&](size_t ti, size_t tj) -> TileEdges & {
        return edges[ti * g.cols + tj];
    };

    ctx.beginKernel();
    i64 distance = static_cast<i64>(n);
    for (size_t tj = 0; tj < g.cols; ++tj) {
        const unsigned tt = g.tileWidth(tj);
        unit.csrwText(text.codes().data() + tj * g.t, tt);
        for (size_t ti = 0; ti < g.rows; ++ti) {
            ctx.poll();
            const unsigned tp = g.tileHeight(ti);
            unit.csrwPattern(pattern.codes().data() + ti * g.t, tp);
            const DeltaVec dv_in =
                tj == 0 ? DeltaVec::ones(tp) : at(ti, tj - 1).v;
            const DeltaVec dh_in =
                ti == 0 ? DeltaVec::ones(tt) : at(ti - 1, tj).h;
            at(ti, tj).v = unit.gmxV(dv_in, dh_in);
            at(ti, tj).h = unit.gmxH(dv_in, dh_in);
            chargeTile(counts, tp, tt);
        }
        distance += at(g.rows - 1, tj).h.sum(tt);
    }

    // ---- Tile-wise traceback (Algorithm 2) ----
    AlignResult res;
    res.distance = distance;
    res.has_cigar = true;
    res.cigar = tileTraceback(
        unit, pattern, text, ctx,
        [&](size_t ti, size_t tj, unsigned tp) {
            return tj == 0 ? DeltaVec::ones(tp) : at(ti, tj - 1).v;
        },
        [&](size_t ti, size_t tj, unsigned tt) {
            return ti == 0 ? DeltaVec::ones(tt) : at(ti - 1, tj).h;
        });
    foldUnitCounts(counts, unit.counts());
    ctx.donePhases();
    return res;
}

align::AlignResult
fullGmxAlign(const seq::Sequence &pattern, const seq::Sequence &text,
             unsigned tile)
{
    KernelContext ctx;
    return fullGmxAlign(pattern, text, tile, ctx);
}

} // namespace gmx::core

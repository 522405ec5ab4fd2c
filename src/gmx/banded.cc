#include "gmx/banded.hh"

#include <algorithm>
#include <span>

#include "common/logging.hh"
#include "gmx/traceback.hh"

namespace gmx::core {

namespace {

using align::AlignResult;
using align::Op;

/**
 * Band-local tile-edge storage: one row of tiles per pattern tile-row,
 * viewing arena-backed storage. Rows used to copy their tiles into a
 * per-row std::vector (two allocations plus a copy per tile row); the
 * spans write each row's edges in place exactly once.
 */
struct BandRow
{
    size_t lo = 0; //!< first tile column in the band for this row
    std::span<TileEdges> tiles;

    bool
    contains(size_t tj) const
    {
        return tj >= lo && tj < lo + tiles.size();
    }

    TileEdges &
    at(size_t tj)
    {
        GMX_ASSERT(contains(tj));
        return tiles[tj - lo];
    }

    const TileEdges &
    at(size_t tj) const
    {
        GMX_ASSERT(contains(tj));
        return tiles[tj - lo];
    }
};

} // namespace

align::AlignResult
bandedGmxAlign(const seq::Sequence &pattern, const seq::Sequence &text, i64 k,
               bool want_cigar, unsigned tile, bool enforce_bound,
               KernelContext &ctx)
{
    AlignResult res;
    if (k < 0)
        GMX_FATAL("bandedGmxAlign: negative error bound %lld",
                  static_cast<long long>(k));
    const size_t n = pattern.size();
    const size_t m = text.size();
    if (static_cast<i64>(n > m ? n - m : m - n) > k)
        return res;
    if (n == 0 || m == 0) {
        res.distance = static_cast<i64>(n + m);
        if (want_cigar) {
            res.cigar.push(Op::Deletion, m);
            res.cigar.push(Op::Insertion, n);
            res.has_cigar = true;
        }
        return res;
    }

    ctx.beginSetup();
    ScratchArena::Frame frame(ctx.arena());
    GmxUnit unit(tile);
    KernelCounts *counts = ctx.countsSink();
    const unsigned t = tile;
    const size_t gr = (n + t - 1) / t;
    const size_t gc = (m + t - 1) / t;
    auto tile_height = [&](size_t ti) {
        return static_cast<unsigned>(std::min<size_t>(t, n - ti * t));
    };
    auto tile_width = [&](size_t tj) {
        return static_cast<unsigned>(std::min<size_t>(t, m - tj * t));
    };

    // Tile-band half width: any path with <= k edits satisfies |i - j| <=
    // k, converted to tile units with one tile of slack.
    const size_t bt = static_cast<size_t>(k) / t + 2;
    auto band_lo = [&](size_t ti) { return ti > bt ? ti - bt : 0; };
    auto band_hi = [&](size_t ti) { return std::min(gc - 1, ti + bt); };

    // Row storage: all rows when a traceback is wanted (each row's slice
    // carved from the arena up front and written in place), otherwise two
    // rolling rows of the maximum band width (O(band) memory, the
    // megabase configuration).
    std::span<BandRow> all_rows;
    std::span<TileEdges> roll_cur, roll_prev;
    if (want_cigar) {
        all_rows = ctx.arena().rowsUninit<BandRow>(gr);
        for (size_t ti = 0; ti < gr; ++ti) {
            const size_t lo = band_lo(ti);
            all_rows[ti] = BandRow{
                lo, ctx.arena().rowsUninit<TileEdges>(band_hi(ti) - lo + 1)};
        }
    } else {
        const size_t max_w = std::min(gc, 2 * bt + 1);
        roll_cur = ctx.arena().rowsUninit<TileEdges>(max_w);
        roll_prev = ctx.arena().rowsUninit<TileEdges>(max_w);
    }

    BandRow prev_row, cur_row;
    i64 corner = 0;      // D[ti*t][band_lo(ti)*t] for the current row
    i64 distance = align::kNoAlignment;

    ctx.beginKernel();
    for (size_t ti = 0; ti < gr; ++ti) {
        const unsigned tp = tile_height(ti);
        unit.csrwPattern(pattern.codes().data() + ti * t, tp);
        const size_t lo = band_lo(ti);
        const size_t hi = band_hi(ti);
        if (want_cigar)
            cur_row = all_rows[ti];
        else
            cur_row = BandRow{lo, roll_cur.first(hi - lo + 1)};

        i64 corner_run = corner;     // D[ti*t][tj*t] while sweeping
        i64 corner_next = 0;         // corner for row ti+1
        const size_t next_lo = ti + 1 < gr ? band_lo(ti + 1) : 0;
        bool have_next = false;

        for (size_t tj = lo; tj <= hi; ++tj) {
            ctx.poll();
            const unsigned tt = tile_width(tj);
            unit.csrwText(text.codes().data() + tj * t, tt);

            // Left input: matrix boundary, in-band neighbour, or envelope.
            DeltaVec dv_in;
            if (tj == 0 || tj - 1 < lo)
                dv_in = DeltaVec::ones(tp);
            else
                dv_in = cur_row.at(tj - 1).v;
            // Top input: matrix boundary, in-band neighbour, or envelope.
            DeltaVec dh_in;
            if (ti == 0 || !prev_row.contains(tj))
                dh_in = DeltaVec::ones(tt);
            else
                dh_in = prev_row.at(tj).h;

            TileEdges &e = cur_row.at(tj);
            e.v = unit.gmxV(dv_in, dh_in);
            e.h = unit.gmxH(dv_in, dh_in);
            if (counts) {
                counts->cells += static_cast<u64>(tp) * tt;
                counts->loads += 2;
                counts->stores += 2;
                counts->alu += 6; // loop control + band bookkeeping
            }

            if (ti + 1 < gr && tj == next_lo) {
                corner_next = corner_run + dv_in.sum(tp);
                have_next = true;
            }
            if (ti == gr - 1 && tj == gc - 1) {
                // D[n][m] = corner + left-edge sum + bottom-edge sum.
                distance = corner_run + dv_in.sum(tp) + e.h.sum(tt);
            }
            corner_run += dh_in.sum(tt);
        }

        if (ti + 1 < gr) {
            GMX_ASSERT(have_next,
                       "next row's band start must be inside this band");
            corner = corner_next;
        }
        prev_row = cur_row;
        if (!want_cigar)
            std::swap(roll_cur, roll_prev);
    }

    GMX_ASSERT(distance != align::kNoAlignment);
    if (enforce_bound && distance > k) {
        foldUnitCounts(counts, unit.counts());
        ctx.donePhases();
        return res; // band verdict: may exist only at a larger k
    }
    res.distance = distance;
    if (!want_cigar) {
        foldUnitCounts(counts, unit.counts());
        ctx.donePhases();
        return res;
    }
    res.has_cigar = true;

    // ---- Tile-wise traceback over the banded edge storage ----
    res.cigar = tileTraceback(
        unit, pattern, text, ctx,
        [&](size_t ti, size_t tj, unsigned tp) {
            GMX_ASSERT(all_rows[ti].contains(tj),
                       "banded traceback left the band; raise k");
            if (tj == 0 || !all_rows[ti].contains(tj - 1))
                return DeltaVec::ones(tp);
            return all_rows[ti].at(tj - 1).v;
        },
        [&](size_t ti, size_t tj, unsigned tt) {
            if (ti == 0 || !all_rows[ti - 1].contains(tj))
                return DeltaVec::ones(tt);
            return all_rows[ti - 1].at(tj).h;
        });
    foldUnitCounts(counts, unit.counts());
    ctx.donePhases();
    return res;
}

align::AlignResult
bandedGmxAlign(const seq::Sequence &pattern, const seq::Sequence &text, i64 k,
               bool want_cigar, unsigned tile, bool enforce_bound)
{
    KernelContext ctx;
    return bandedGmxAlign(pattern, text, k, want_cigar, tile, enforce_bound,
                          ctx);
}

align::AlignResult
bandedGmxAuto(const seq::Sequence &pattern, const seq::Sequence &text,
              bool want_cigar, i64 k0, unsigned tile, KernelContext &ctx)
{
    const i64 limit =
        static_cast<i64>(std::max(pattern.size(), text.size()));
    i64 k = std::max<i64>(k0, 1);
    while (true) {
        AlignResult res = bandedGmxAlign(pattern, text, k, want_cigar, tile,
                                         /*enforce_bound=*/true, ctx);
        if (res.found())
            return res;
        if (k >= limit)
            GMX_PANIC("bandedGmxAuto failed with a full-width band");
        k = std::min(limit, k * 2);
    }
}

align::AlignResult
bandedGmxAuto(const seq::Sequence &pattern, const seq::Sequence &text,
              bool want_cigar, i64 k0, unsigned tile)
{
    KernelContext ctx;
    return bandedGmxAuto(pattern, text, want_cigar, k0, tile, ctx);
}

} // namespace gmx::core

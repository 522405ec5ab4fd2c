#include "gmx/tile.hh"

#include "sequence/alphabet.hh"

namespace gmx::core {

namespace {

void
checkInput(const TileInput &in)
{
    GMX_ASSERT(in.tp >= 1 && in.tp <= kMaxTile);
    GMX_ASSERT(in.tt >= 1 && in.tt <= kMaxTile);
    GMX_ASSERT(in.pattern != nullptr && in.text != nullptr);
}

/**
 * Per-symbol pattern masks: bit r of eq[s] is set when row r holds s. The
 * hardware compares characters directly in each compute cell; this table
 * is only the software emulation's O(1)-per-column equivalent of those
 * parallel comparators.
 */
void
patternMasks(const TileInput &in, u64 (&eq)[seq::kDnaSymbols])
{
    for (u64 &m : eq)
        m = 0;
    for (unsigned r = 0; r < in.tp; ++r)
        eq[in.pattern[r] & 3] |= u64{1} << r;
}

} // namespace

TileOutput
tileCompute(const TileInput &in)
{
    checkInput(in);
    u64 eq_mask[seq::kDnaSymbols];
    patternMasks(in, eq_mask);
    const u64 row_mask = DeltaVec::laneMask(in.tp);
    const u64 out_bit = u64{1} << (in.tp - 1);

    TileOutput out;
    u64 pv = in.dv_in.p & row_mask;
    u64 mv = in.dv_in.m & row_mask;
    for (unsigned c = 0; c < in.tt; ++c) {
        const ColumnWords col = tileColumnStep(
            eq_mask[in.text[c] & 3], in.dh_in.at(c), row_mask, pv, mv);
        // Horizontal delta leaving the tile at the bottom row.
        if (col.ph & out_bit)
            out.dh_out.p |= u64{1} << c;
        else if (col.mh & out_bit)
            out.dh_out.m |= u64{1} << c;
        pv = col.pv;
        mv = col.mv;
    }
    out.dv_out.p = pv;
    out.dv_out.m = mv;
    return out;
}

void
tileColumns(const TileInput &in, unsigned ncols, ColumnWords *cols)
{
    checkInput(in);
    GMX_ASSERT(ncols >= 1 && ncols <= in.tt);
    u64 eq_mask[seq::kDnaSymbols];
    patternMasks(in, eq_mask);
    const u64 row_mask = DeltaVec::laneMask(in.tp);

    u64 pv = in.dv_in.p & row_mask;
    u64 mv = in.dv_in.m & row_mask;
    for (unsigned c = 0; c < ncols; ++c) {
        cols[c] = tileColumnStep(eq_mask[in.text[c] & 3], in.dh_in.at(c),
                                 row_mask, pv, mv);
        pv = cols[c].pv;
        mv = cols[c].mv;
    }
}

TileOutput
tileComputeScalar(const TileInput &in)
{
    const TileInterior interior = tileInterior(in);
    TileOutput out;
    for (unsigned r = 0; r < in.tp; ++r)
        out.dv_out.set(r, interior.dvAt(r, in.tt - 1));
    for (unsigned c = 0; c < in.tt; ++c)
        out.dh_out.set(c, interior.dhAt(in.tp - 1, c));
    return out;
}

TileInterior
tileInterior(const TileInput &in)
{
    checkInput(in);
    TileInterior interior;
    interior.tp = in.tp;
    interior.tt = in.tt;
    interior.dv.resize(static_cast<size_t>(in.tp) * in.tt);
    interior.dh.resize(static_cast<size_t>(in.tp) * in.tt);

    for (unsigned r = 0; r < in.tp; ++r) {
        for (unsigned c = 0; c < in.tt; ++c) {
            const int dv_left =
                c == 0 ? in.dv_in.at(r) : interior.dvAt(r, c - 1);
            const int dh_up =
                r == 0 ? in.dh_in.at(c) : interior.dhAt(r - 1, c);
            const bool eq = (in.pattern[r] & 3) == (in.text[c] & 3);

            bool out_p = false, out_m = false;
            gmxDeltaBits(dv_left > 0, dv_left < 0, dh_up > 0, dh_up < 0, eq,
                         out_p, out_m);
            interior.dv[r * in.tt + c] =
                static_cast<i8>(out_p ? 1 : out_m ? -1 : 0);

            gmxDeltaBits(dh_up > 0, dh_up < 0, dv_left > 0, dv_left < 0, eq,
                         out_p, out_m);
            interior.dh[r * in.tt + c] =
                static_cast<i8>(out_p ? 1 : out_m ? -1 : 0);
        }
    }
    return interior;
}

} // namespace gmx::core

/**
 * @file
 * GMX-Tile: bit-parallel computation of one (T x T) DP-matrix tile
 * (paper §4.2).
 *
 * A tile is defined by its pattern chunk (rows), text chunk (columns), and
 * the delta vectors on its input edges: dv_in along the left edge and
 * dh_in along the top edge. Computing the tile yields dv_out (right edge)
 * and dh_out (bottom edge); interior DP-elements are produced on the fly
 * and never stored — the memory saving at the heart of GMX.
 *
 * Both the forward kernel and the traceback recompute run one shared
 * Myers-style column step per text character (tileColumnStep):
 *  - tileCompute: the gmx.v/gmx.h functional kernel of GmxUnit;
 *  - tileColumns: the same steps, keeping every column's delta words —
 *    the interior GMX-TB recomputes on the GMX-AC array (Fig. 9.b) and
 *    walks by testing bits.
 *
 * tileInterior() materializes every interior delta cell by cell with the
 * scalar GMXD network. It is the test oracle for the word kernels and the
 * input of the gate-level GMX-TB model (hw/gmx_tb), not an emulation path;
 * tileComputeScalar reads its edges.
 */

#ifndef GMX_GMX_TILE_HH
#define GMX_GMX_TILE_HH

#include <vector>

#include "gmx/delta.hh"

namespace gmx::core {

/** Maximum supported tile size (lanes of one machine word). */
inline constexpr unsigned kMaxTile = 64;

/** Inputs of one tile computation. Chunks are 2-bit DNA codes. */
struct TileInput
{
    const u8 *pattern = nullptr; //!< tp codes, tile rows top to bottom
    unsigned tp = 0;             //!< tile height (1..kMaxTile)
    const u8 *text = nullptr;    //!< tt codes, tile columns left to right
    unsigned tt = 0;             //!< tile width (1..kMaxTile)
    DeltaVec dv_in;              //!< left-edge vertical deltas (tp lanes)
    DeltaVec dh_in;              //!< top-edge horizontal deltas (tt lanes)
};

/** Outputs of one tile computation. */
struct TileOutput
{
    DeltaVec dv_out; //!< right-edge vertical deltas (tp lanes)
    DeltaVec dh_out; //!< bottom-edge horizontal deltas (tt lanes)
};

/**
 * Delta words of one tile column, lane r holding row r: the vertical
 * deltas dv(r, c) and the horizontal deltas dh(r, c) of every cell in
 * column c. Lanes at and above the tile height are zero.
 */
struct ColumnWords
{
    u64 pv; //!< dv == +1
    u64 mv; //!< dv == -1
    u64 ph; //!< dh == +1
    u64 mh; //!< dh == -1
};

/**
 * One Myers/Hyyrö column step over the lanes of @p row_mask: given the
 * previous column's vertical deltas (@p pv, @p mv), the lanes whose
 * pattern character equals this column's text character (@p eq) and the
 * horizontal delta entering from above (@p hin), returns this column's
 * words. It evaluates the same recurrence as the GMXD cell network.
 */
inline ColumnWords
tileColumnStep(u64 eq, int hin, u64 row_mask, u64 pv, u64 mv)
{
    if (hin < 0)
        eq |= 1;
    const u64 xv = eq | mv;
    const u64 xh = (((eq & pv) + pv) ^ pv) | eq;
    const u64 ph = (mv | ~(xh | pv)) & row_mask;
    const u64 mh = pv & xh & row_mask;

    // Realign ph/mh from "delta of row r" to "delta entering row r".
    u64 ph_in = ph << 1;
    u64 mh_in = mh << 1;
    if (hin > 0)
        ph_in |= 1;
    else if (hin < 0)
        mh_in |= 1;

    return {(mh_in | ~(xv | ph_in)) & row_mask, ph_in & xv & row_mask, ph,
            mh};
}

/** Bit-parallel tile computation (the gmx.v/gmx.h functional kernel). */
TileOutput tileCompute(const TileInput &in);

/**
 * Recompute the words of the first @p ncols (1..tt) columns of a tile into
 * @p cols — the word form of tileInterior, used by the GMX-TB walk.
 */
void tileColumns(const TileInput &in, unsigned ncols, ColumnWords *cols);

/** Scalar reference: evaluates GMXD per cell in dependency order. */
TileOutput tileComputeScalar(const TileInput &in);

/** Every interior delta of a tile, for verification and the hw model. */
struct TileInterior
{
    unsigned tp = 0;
    unsigned tt = 0;
    std::vector<i8> dv; //!< dv of cell (r, c) at index r * tt + c
    std::vector<i8> dh; //!< dh of cell (r, c)

    int dvAt(unsigned r, unsigned c) const { return dv[r * tt + c]; }
    int dhAt(unsigned r, unsigned c) const { return dh[r * tt + c]; }
};

/**
 * Recompute all interior deltas of a tile from its input edges, cell by
 * cell (the oracle of tileCompute and tileColumns).
 */
TileInterior tileInterior(const TileInput &in);

} // namespace gmx::core

#endif // GMX_GMX_TILE_HH

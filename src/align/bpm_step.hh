/**
 * @file
 * The scalar Myers/Hyyrö 64-row block step, shared by the unbanded and
 * banded BPM kernels.
 *
 * Kept in one place because bit-identity across kernels depends on every
 * implementation running exactly this recurrence: the Pv/Mv words encode
 * the column's true vertical deltas, so any evaluation order that chains
 * blocks through hin/hout reproduces the same words. The inter-pair
 * batcher (kernel/simd) runs the same chain per vector lane.
 */

#ifndef GMX_ALIGN_BPM_STEP_HH
#define GMX_ALIGN_BPM_STEP_HH

#include "common/types.hh"

namespace gmx::align {

/** Per-block Myers state: vertical delta words. */
struct BpmBlock
{
    u64 pv = ~u64{0}; // +1 vertical deltas (column 0: all +1)
    u64 mv = 0;       // -1 vertical deltas
};

/**
 * One Myers/Hyyrö block step. @p hin is the horizontal delta entering the
 * block top (-1, 0, +1); returns the horizontal delta leaving the bottom.
 * This is the classic 17-operation kernel the paper references.
 */
inline int
bpmBlockStep(BpmBlock &b, u64 eq, int hin)
{
    const u64 pv = b.pv;
    const u64 mv = b.mv;
    if (hin < 0)
        eq |= 1;
    const u64 xv = eq | mv;
    const u64 xh = (((eq & pv) + pv) ^ pv) | eq;

    u64 ph = mv | ~(xh | pv);
    u64 mh = pv & xh;

    int hout = 0;
    if (ph & (u64{1} << 63))
        hout = 1;
    else if (mh & (u64{1} << 63))
        hout = -1;

    ph <<= 1;
    mh <<= 1;
    if (hin < 0)
        mh |= 1;
    else if (hin > 0)
        ph |= 1;

    b.pv = mh | ~(xv | ph);
    b.mv = ph & xv;
    return hout;
}

/** ALU cost of one block step (paper: 17 bit-ops per 64 DP-elements). */
constexpr u64 kBpmBlockAlu = 17;

} // namespace gmx::align

#endif // GMX_ALIGN_BPM_STEP_HH

/**
 * @file
 * Banded(Edlib): block-banded Myers bit-parallel alignment.
 *
 * Like Edlib, the Ukkonen band is maintained in units of 64-row blocks so
 * the per-symbol match masks can be precomputed once per block. Only the
 * blocks intersecting the band around the main diagonal are updated per
 * text character; rows outside the band are assumed to lie on the Ukkonen
 * envelope (deltas of +1), which is exact whenever the optimal path stays
 * inside the band and an overestimate otherwise — the usual banded
 * heuristic contract.
 *
 * The traceback variant stores the banded Pv/Mv history: m * B * 4 bits,
 * the paper's Banded storage figure.
 */

#ifndef GMX_ALIGN_BPM_BANDED_HH
#define GMX_ALIGN_BPM_BANDED_HH

#include "align/bpm.hh"
#include "align/types.hh"
#include "kernel/context.hh"
#include "sequence/sequence.hh"

namespace gmx::align {

/**
 * Banded BPM alignment tolerating at most @p k errors.
 *
 * Returns distance = kNoAlignment when the distance found inside the band
 * exceeds @p k (the alignment may or may not exist at a higher k).
 * When @p want_cigar is false only the distance is computed (O(B) memory).
 * All band state and traceback history come from the context's arena,
 * behind a frame — the k-doubling driver retries without growing scratch.
 */
AlignResult bpmBandedAlign(const seq::Sequence &pattern,
                           const seq::Sequence &text, i64 k, bool want_cigar,
                           KernelContext &ctx);
AlignResult bpmBandedAlign(const seq::Sequence &pattern,
                           const seq::Sequence &text, i64 k,
                           bool want_cigar = true);

/**
 * Edlib-style driver: doubles k (starting from @p k0) until the alignment
 * is found. Always succeeds (k grows to max(n, m) in the worst case).
 */
AlignResult edlibAlign(const seq::Sequence &pattern, const seq::Sequence &text,
                       bool want_cigar, i64 k0, KernelContext &ctx);
AlignResult edlibAlign(const seq::Sequence &pattern, const seq::Sequence &text,
                       bool want_cigar = true, i64 k0 = 64);

/** Distance-only convenience wrapper around edlibAlign. */
i64 edlibDistance(const seq::Sequence &pattern, const seq::Sequence &text,
                  KernelContext &ctx);
i64 edlibDistance(const seq::Sequence &pattern, const seq::Sequence &text);

} // namespace gmx::align

#endif // GMX_ALIGN_BPM_BANDED_HH

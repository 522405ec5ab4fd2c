/**
 * @file
 * Bitap (shift-and with errors), the algorithm underlying GenASM.
 *
 * The state S[d] for a text prefix of length j is a bit vector where bit i
 * means "the pattern prefix of length i+1 aligns to the text prefix of
 * length j with at most d edits" — i.e. the classic DP matrix thresholded
 * at distance d. Each text character updates all k+1 vectors with ~7 bit
 * operations per vector word (the paper's 7k per-character cost), and the
 * full S history (m matrices of n x k bits) enables the traceback, exactly
 * the memory behaviour the paper attributes to Bitap/GenASM.
 */

#ifndef GMX_ALIGN_BITAP_HH
#define GMX_ALIGN_BITAP_HH

#include "align/types.hh"
#include "kernel/context.hh"
#include "sequence/sequence.hh"

namespace gmx::align {

/**
 * Edit distance via Bitap with at most @p k errors; kNoAlignment when the
 * distance exceeds k. O(k * n/w) working memory, from the context arena.
 * Polls the context every K text columns (a registry caller may run this
 * on arbitrarily large pairs, so it must be interruptible like the DP
 * kernels).
 */
i64 bitapDistance(const seq::Sequence &pattern, const seq::Sequence &text,
                  i64 k, KernelContext &ctx);
i64 bitapDistance(const seq::Sequence &pattern, const seq::Sequence &text,
                  i64 k);

/**
 * Full Bitap alignment with traceback tolerating at most @p k errors.
 * Stores the complete S[d][j] history: (k+1) * m * ceil(n/64) words.
 */
AlignResult bitapAlign(const seq::Sequence &pattern, const seq::Sequence &text,
                       i64 k, KernelContext &ctx);
AlignResult bitapAlign(const seq::Sequence &pattern, const seq::Sequence &text,
                       i64 k);

/** Doubling driver: grows k until the alignment is found (always succeeds). */
AlignResult bitapAlignAuto(const seq::Sequence &pattern,
                           const seq::Sequence &text, i64 k0,
                           KernelContext &ctx);
AlignResult bitapAlignAuto(const seq::Sequence &pattern,
                           const seq::Sequence &text, i64 k0 = 8);

} // namespace gmx::align

#endif // GMX_ALIGN_BITAP_HH

/**
 * @file
 * Full(BPM): Myers' bit-parallel edit-distance algorithm (blocked).
 *
 * The pattern is packed along 64-bit words (blocks); each text character
 * updates the whole column of vertical deltas with O(n/w) word operations
 * (17 bitwise/arithmetic ops per block, as the paper counts). The full
 * aligner stores the per-column vertical delta vectors (Pv/Mv) so the
 * traceback can recompute any column's distances — 4*n*m bits of storage,
 * matching the paper's Full(BPM) memory analysis.
 */

#ifndef GMX_ALIGN_BPM_HH
#define GMX_ALIGN_BPM_HH

#include <span>

#include "align/bpm_step.hh"
#include "align/types.hh"
#include "kernel/context.hh"
#include "sequence/sequence.hh"

namespace gmx::align {

/**
 * KernelCounts moved to kernel/counts.hh (namespace gmx) so the shared
 * KernelContext can carry it; the old gmx::align spelling stays valid.
 */
using KernelCounts = gmx::KernelCounts;

/** Distance only; O(n/w) working memory. */
i64 bpmDistance(const seq::Sequence &pattern, const seq::Sequence &text,
                KernelContext &ctx);
i64 bpmDistance(const seq::Sequence &pattern, const seq::Sequence &text);

/**
 * Full alignment: stores the Pv/Mv column history (4*n*m bits) and walks
 * it back. The traceback recomputes column value vectors by prefix-summing
 * the stored deltas, visiting O(path length) columns.
 */
AlignResult bpmAlign(const seq::Sequence &pattern, const seq::Sequence &text,
                     KernelContext &ctx);
AlignResult bpmAlign(const seq::Sequence &pattern, const seq::Sequence &text);

/**
 * Symbol-major Peq table (kDnaSymbols rows of @p stride words; stride may
 * exceed ceil(n/64), and the tail words stay zero).
 * When the context carries a PeqMemo the table is memoized across retries
 * on the same pattern/stride; callers with a memo must acquire BEFORE
 * opening their arena frame so the table survives the rewind.
 */
std::span<const u64> acquirePeq(const seq::Sequence &pattern, size_t stride,
                                KernelContext &ctx);

} // namespace gmx::align

#endif // GMX_ALIGN_BPM_HH

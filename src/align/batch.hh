/**
 * @file
 * Pair-level admission shared by every serving path: the PairAligner
 * signature, the length class a pair is admitted under, and the input
 * limits validatePair() checks before a kernel sees the pair. Batches
 * of pairs run through engine::Engine, which owns the worker threads,
 * backpressure and cascade routing.
 */

#ifndef GMX_ALIGN_BATCH_HH
#define GMX_ALIGN_BATCH_HH

#include <functional>

#include "align/types.hh"
#include "common/status.hh"
#include "sequence/sequence.hh"

namespace gmx::align {

/** Aligns one pair; invoked concurrently from worker threads. */
using PairAligner = std::function<AlignResult(const seq::SequencePair &)>;

/**
 * Admission class of a pair. Short pairs run the exact cascade under
 * the short-class limits; Long pairs run a streaming O(window) kernel,
 * so the length-sensitive short limits (max_pair_bases, skew) do not
 * apply to them — only the long class's own cap does. The router
 * (engine::lengthClassFor) decides the class; validation honours it.
 */
enum class LengthClass {
    Short,
    Long,
};

/**
 * Admission limits applied to every pair before a kernel sees it.
 * Shared by engine::Engine::submit and serve::AlignServer, so the whole
 * pipeline rejects hostile inputs with a typed InvalidInput status
 * instead of handing them to a quadratic kernel. Zero means "no limit".
 */
struct InputLimits
{
    /** Reject pairs where either sequence is empty. */
    bool reject_empty = true;

    /** Reject sequences built from bytes outside ACGT/acgt. */
    bool reject_non_acgt = false;

    /** Max pattern + text bases per pair (0 = unlimited). */
    size_t max_pair_bases = 0;

    /** Max |pattern length - text length| (0 = unlimited). */
    size_t max_length_skew = 0;

    /**
     * Max pattern + text bases for a Long-class pair (0 = unlimited).
     * Separate from max_pair_bases because the long class's streaming
     * kernel holds O(window) state: the cap guards wall-clock and
     * result-frame size, not memory, so it can sit orders of magnitude
     * above the short-class limit.
     */
    size_t max_long_pair_bases = 0;
};

/** Ok, or InvalidInput naming the first violated limit. */
Status validatePair(const seq::SequencePair &pair, const InputLimits &limits);

/**
 * Class-aware validation: Short applies the full short-class limit set
 * (identical to the two-argument overload); Long applies reject_empty,
 * reject_non_acgt, and max_long_pair_bases only — a Long pair is by
 * definition past the short length limits, and skew between a read and
 * a reference window is routine at Mbp scale.
 */
Status validatePair(const seq::SequencePair &pair, const InputLimits &limits,
                    LengthClass klass);

} // namespace gmx::align

#endif // GMX_ALIGN_BATCH_HH

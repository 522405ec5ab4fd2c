/**
 * @file
 * Adaptive cascade dispatcher: route each pair through the cheapest
 * alignment strategy that can answer it exactly.
 *
 * The tiers reuse the paper's §4.1 strategies, cheapest first:
 *
 *   1. Filter — Bitap (the GenASM kernel) with a small error budget k.
 *      Distance-only requests whose distance is <= k finish here; for
 *      traceback requests a hit still fixes the exact band for tier 2.
 *   2. Banded(GMX) — the Edlib-style band of tiles. Exact whenever the
 *      optimal path stays inside the band; the band either comes from the
 *      filter (known distance => guaranteed hit) or grows by doubling.
 *   3. Full(GMX) — the whole DP-matrix; always exact, the fallback when
 *      the pair diverges too much for any band the budget allows.
 *
 * Every tier is exact when it answers (Bitap and Banded(GMX) both report
 * the true edit distance whenever they report success), so the cascade
 * returns bit-identical distances — and, because Banded(GMX) and
 * Full(GMX) share the same tile traceback with the same tie-breaking,
 * identical CIGARs — to running Full(GMX) on every pair.
 */

#ifndef GMX_ENGINE_CASCADE_HH
#define GMX_ENGINE_CASCADE_HH

#include <algorithm>
#include <span>
#include <vector>

#include "align/batch.hh" // LengthClass: routing decision shared with submit
#include "align/types.hh"
#include "common/cancel.hh"
#include "engine/budget.hh" // cascadeAutoFilterK: shared with admission
#include "engine/metrics.hh"
#include "kernel/context.hh"
#include "sequence/sequence.hh"

namespace gmx::kernel {
struct AlignerDescriptor;
} // namespace gmx::kernel

namespace gmx::engine {

/**
 * Tuning knobs for the cascade. The tier kernels are registry names
 * (kernel::AlignerRegistry), so the tier list is data: swapping the
 * filter to "bpm-banded" or the exact tiers to a future kernel is a
 * config edit, not a dispatcher rewrite. Each named kernel must be
 * exact and, for the banded tier, banded.
 */
struct CascadeConfig
{
    /** False routes everything straight to the full tier. */
    bool enabled = true;

    /**
     * Filter error budget; 0 derives it from the pair:
     * max(8, max(n,m)/16, |n-m| + 4).
     */
    i64 filter_k = 0;

    /**
     * Banded attempts when the filter misses: band budgets 2k, 4k, ...
     * (band_doublings of them) before escalating to the full tier.
     */
    int band_doublings = 2;

    /** GMX tile size for the banded and full tiers. */
    unsigned tile = 32;

    const char *filter_kernel = "bitap";     //!< tier 1 (distance-only)
    const char *banded_kernel = "gmx-banded"; //!< tier 2 (exact in band)
    const char *full_kernel = "gmx-full";     //!< tier 3 (always answers)

    /**
     * Length-class routing: pairs whose longer side reaches
     * long_threshold bypass the exact cascade and run the streaming
     * windowed tier (Tier::Streamed) in O(window) memory. 0 disables
     * the long class (every pair is Short). The streamed tier is a
     * heuristic — distances are near-exact upper bounds, not optima —
     * which is the trade that makes Mbp-scale pairs servable at all:
     * Full(GMX) traceback on a 1 Mbp pair wants ~31 GB of tile edges.
     */
    size_t long_threshold = 64 * 1024;
    const char *long_kernel = "gmx-windowed-stream"; //!< streamed tier
    size_t long_window = 96; //!< window geometry for the streamed tier
    size_t long_overlap = 32;
};

/** Which route an (n, m) pair takes under @p config. Degenerate pairs
 *  stay Short: the full tier handles them without window machinery. */
inline align::LengthClass
lengthClassFor(const CascadeConfig &config, size_t n, size_t m)
{
    const bool is_long = config.enabled && n > 0 && m > 0 &&
                         config.long_threshold > 0 &&
                         config.long_kernel != nullptr &&
                         std::max(n, m) >= config.long_threshold;
    return is_long ? align::LengthClass::Long : align::LengthClass::Short;
}

/**
 * One kernel invocation inside a cascade run: which tier ran, how much
 * work it did, and how long it took. A request that escalates records
 * one attempt per tier tried (a missed banded doubling is its own
 * attempt), so per-tier work accounting attributes cells to the tier
 * that actually computed them, not to the tier that finally answered.
 */
struct CascadeAttempt
{
    Tier tier = Tier::Full;
    u64 cells = 0;       //!< DP cells this attempt computed
    double micros = 0.0; //!< wall-clock time of the attempt
    bool answered = false; //!< true on the attempt that produced the result

    /**
     * Phase split of micros as attributed by the kernel itself: setup is
     * mask/grid building and scratch carving, kernel is the DP loop plus
     * traceback. GCUPS reported per tier divides cells by kernel time
     * only, so tile-build overhead can no longer inflate or dilute it.
     */
    double setup_us = 0.0;
    double kernel_us = 0.0;
};

/** Result of one cascade routing decision. */
struct CascadeOutcome
{
    align::AlignResult result;
    Tier tier = Tier::Full; //!< tier that produced the result

    /** Total dynamic work across every attempt (cells, ops, GMX instrs). */
    KernelCounts counts;

    /** Kernel invocations in execution order; the last one answered. */
    std::vector<CascadeAttempt> attempts;
};

/**
 * Align @p pair through the cascade. With @p want_cigar the result carries
 * a full traceback (so tier 1 can only pre-filter, never answer); without
 * it the result is distance-only and may finish at any tier.
 *
 * @p cancel is threaded into the banded and full tiers, whose inner loops
 * poll it every K tiles; a cancelled or expired request unwinds with
 * StatusError instead of running its tier to completion.
 */
CascadeOutcome cascadeAlign(const seq::SequencePair &pair,
                            const CascadeConfig &config, bool want_cigar,
                            const CancelToken &cancel = {});

/**
 * Same, drawing every tier's scratch from @p arena (not reset here: the
 * owner resets once per request and reads peakBytes() afterwards). The
 * four-argument overload uses a thread-local arena, so standalone
 * callers still skip per-call heap traffic after warmup.
 */
CascadeOutcome cascadeAlign(const seq::SequencePair &pair,
                            const CascadeConfig &config, bool want_cigar,
                            const CancelToken &cancel, ScratchArena &arena);

/**
 * The registry kernel the full tier runs for a request: the configured
 * full_kernel, except that a distance-only request under the default
 * "gmx-full" runs scalar "bpm", the same exact Myers recurrence without
 * the GMX tile emulation. One definition, shared by the cascade, the
 * engine's admission estimate and its per-kernel length check.
 */
const kernel::AlignerDescriptor &fullTierKernel(const CascadeConfig &config,
                                                bool want_cigar);

/** The effective filter budget the cascade runs with for an n x m pair:
 *  the configured filter_k, or the auto policy when it is 0. One
 *  definition, shared by routing, admission, and the engine's lane
 *  packer (a packed group's hit/miss decisions must use the same k the
 *  scalar cascade would have). */
inline i64
cascadeFilterK(const CascadeConfig &config, size_t n, size_t m)
{
    return config.filter_k > 0 ? config.filter_k
                               : cascadeAutoFilterK(n, m);
}

/**
 * One request's slot in a batched filter-tier run. The engine's lane
 * packer fills pair/cancel, cascadeFilterBatch() fills the outputs: the
 * filter verdict exactly as the scalar filter tier would have produced
 * it (found with the exact distance iff distance <= k, not-found
 * otherwise — the batch kernel's exact distance on a miss is discarded
 * so the continuation mirrors the scalar cascade attempt for attempt),
 * plus the per-lane work record to seed the request's outcome with.
 */
struct FilterLane
{
    const seq::SequencePair *pair = nullptr;
    CancelToken cancel{};

    // Outputs.
    Status status{};              //!< Cancelled / DeadlineExceeded
    align::AlignResult filtered;  //!< scalar-identical filter verdict
    CascadeAttempt attempt;       //!< this lane's Filter-tier attempt
    KernelCounts counts;          //!< this lane's own kernel work
};

/**
 * Run the cascade's filter tier for up to four requests as one packed
 * kernel invocation (simd::bpmDistanceBatchLanes), producing per-lane
 * verdicts bit-identical to the scalar "bitap" filter: both compute the
 * exact distance and apply the same d <= k decision, so a packed request
 * continues through banded/full exactly as if it had run alone. Requires
 * every lane to satisfy simd::batchLaneFits and the config's filter
 * kernel to be the default "bitap" (the engine's packer checks both).
 */
void cascadeFilterBatch(std::span<FilterLane> lanes,
                        const CascadeConfig &config, ScratchArena &arena);

/**
 * Resume one request's cascade after its filter tier ran in a batch:
 * seeds the outcome with the lane's filter attempt/counts, then runs the
 * unchanged banded/full continuation (filter hit + no cigar -> done; hit
 * + cigar -> pinned band; miss -> band doublings then full). Requires a
 * non-degenerate pair (the packer never batches empty sequences).
 */
CascadeOutcome cascadeContinueAfterFilter(const seq::SequencePair &pair,
                                          const CascadeConfig &config,
                                          bool want_cigar,
                                          const CancelToken &cancel,
                                          ScratchArena &arena,
                                          const FilterLane &lane);

} // namespace gmx::engine

#endif // GMX_ENGINE_CASCADE_HH

/**
 * @file
 * Adaptive cascade dispatcher: route each pair through the cheapest
 * alignment strategy that can answer it exactly.
 *
 * A short-class request takes at most two kernel calls:
 *
 *   1. Distance — the exact, unbanded Myers/BPM pass ("bpm"; a packed
 *      lane of simd::bpmDistanceBatchLanes when the engine fuses
 *      requests). It never misses, so a distance-only request always
 *      ends here.
 *   2. Traceback — one attempt, sized by tier 1's exact distance d:
 *      Banded(GMX) at band max(d, 1) when d <= 2k (k = cascadeFilterK),
 *      which is guaranteed to answer; otherwise Full(GMX) over the whole
 *      DP-matrix.
 *
 * Every tier is exact, so the cascade returns bit-identical distances —
 * and, because Banded(GMX) and Full(GMX) share the same tile traceback
 * with the same tie-breaking, identical CIGARs — to running Full(GMX) on
 * every pair. A disabled cascade or a pair with an empty side runs the
 * full tier alone ("bpm" for a distance, Full(GMX) for a traceback; see
 * fullTierKernel), and the long length class runs the streamed tier
 * alone.
 *
 * planRoute() makes every routing decision for one request once: length
 * class, tier list with kernel parameters, the memory downgrade, lane
 * packability and admission bytes. The engine stores the plan on the
 * request; runPlan() and runDowngrade() execute it.
 */

#ifndef GMX_ENGINE_CASCADE_HH
#define GMX_ENGINE_CASCADE_HH

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "align/batch.hh" // LengthClass: routing decision shared with submit
#include "align/types.hh"
#include "common/cancel.hh"
#include "engine/budget.hh" // cascadeAutoFilterK: shared with admission
#include "engine/metrics.hh"
#include "kernel/context.hh"
#include "kernel/registry.hh"
#include "sequence/sequence.hh"

namespace gmx::engine {

/**
 * Tuning knobs for the cascade. The tier kernels are registry names
 * (kernel::AlignerRegistry), so the tier list is data: swapping an
 * exact tier to a future kernel is a config edit, not a dispatcher
 * rewrite. Each named kernel must be exact; tier 1 must also be
 * unbanded (it may never miss) and the banded tier banded.
 */
struct CascadeConfig
{
    /** False routes everything straight to the full tier. */
    bool enabled = true;

    /**
     * Band budget k; 0 derives it from the pair:
     * max(8, max(n,m)/16, |n-m| + 4). A traceback whose exact distance
     * is at most 2k runs the banded tier, a wider one the full tier.
     */
    i64 filter_k = 0;

    /** GMX tile size for the banded and full tiers. */
    unsigned tile = 32;

    const char *filter_kernel = "bpm";        //!< tier 1 (exact distance)
    const char *banded_kernel = "gmx-banded"; //!< traceback, d <= 2k
    const char *full_kernel = "gmx-full";     //!< traceback, d > 2k

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
 *  stay Short: the full tier handles them without window machinery.
 *  planRoute is the engine's one caller; the serve front door classifies
 *  with it too, so both validate a pair as the same class. */
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
 * work it did, and how long it took. A traceback request records its
 * distance pass and its traceback as two attempts, so per-tier work
 * accounting attributes cells to the tier that actually computed them,
 * not to the tier that finally answered.
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
 * One planned kernel invocation: the tier it counts toward, the registry
 * kernel that runs it and its base parameters. The banded tier's k is
 * its widest band, 2k; runPlan narrows it to the exact distance.
 */
struct PlannedTier
{
    Tier tier = Tier::Full;
    const kernel::AlignerDescriptor *desc = nullptr;
    kernel::KernelParams params;
};

/**
 * Every routing decision for one request, made once by planRoute. A
 * fixed-size value with no heap allocation, so it rides on the engine's
 * queued request as is.
 */
struct RoutePlan
{
    static constexpr size_t kMaxTiers = 3; //!< distance, banded, full

    align::LengthClass klass = align::LengthClass::Short;
    bool want_cigar = true;

    /**
     * The first tier always runs; a traceback request then runs exactly
     * one of the banded and full tiers that follow it.
     */
    std::array<PlannedTier, kMaxTiers> tiers{};
    size_t tier_count = 0;

    /**
     * The memory-frugal traceback the engine runs when the budget cannot
     * admit admission_bytes: "hirschberg", planned for short-class CIGAR
     * requests only (desc is null otherwise). A long-class request never
     * downgrades: its streamed tier is already the frugal option.
     */
    PlannedTier downgrade{};
    size_t downgrade_bytes = 0;

    /**
     * The request may ride a packed distance group (cascadeFilterBatch):
     * distance-only, short class, cascade on with the "bpm" tier 1 and
     * a pair that fits a batch lane. Its lane then answers it.
     */
    bool packable = false;

    /** Bytes the memory budget reserves for the request. */
    size_t admission_bytes = 0;

    std::span<const PlannedTier> route() const
    {
        return {tiers.data(), tier_count};
    }
};

/** Plan an n x m request under @p config (see RoutePlan). */
RoutePlan planRoute(const CascadeConfig &config, size_t n, size_t m,
                    bool want_cigar);

/**
 * One request's slot in a batched tier-1 run. The engine's lane packer
 * fills pair/cancel, cascadeFilterBatch() fills the outputs: the lane's
 * exact distance (the answer the scalar "bpm" tier would give) and the
 * per-lane work record to seed the request's outcome with. A lane whose
 * pair is null never ran in a group.
 */
struct FilterLane
{
    const seq::SequencePair *pair = nullptr;
    CancelToken cancel{};

    // Outputs.
    Status status{};            //!< Cancelled / DeadlineExceeded
    align::AlignResult result;  //!< the exact distance, no CIGAR
    CascadeAttempt attempt;     //!< this lane's tier-1 attempt
    KernelCounts counts;        //!< this lane's own kernel work
    u64 reserved_share = 0; //!< the lane's share of the group's budget grant
};

/**
 * Run tier 1 for up to four distance-only requests as one packed kernel
 * invocation (simd::bpmDistanceBatchLanes). Each lane gets the exact
 * distance the scalar "bpm" tier computes, which answers its request.
 * Every lane must come from a packable plan.
 */
void cascadeFilterBatch(std::span<FilterLane *const> lanes,
                        ScratchArena &arena);

/**
 * Execute @p plan for @p pair: the first tier, then — for a traceback —
 * one banded attempt at band max(d, 1) when tier 1's distance d is
 * within the banded tier's 2k, else the full tier. With @p packed, tier
 * 1 already ran in a packed group and its lane's distance, attempt and
 * counts stand in for it.
 *
 * Scratch comes from @p arena (not reset here: the owner resets once per
 * request and reads peakBytes() afterwards). @p cancel is threaded into
 * every kernel, whose loops poll it; a cancelled or expired request
 * unwinds with StatusError.
 */
CascadeOutcome runPlan(const RoutePlan &plan, const seq::SequencePair &pair,
                       const CancelToken &cancel, ScratchArena &arena,
                       const FilterLane *packed = nullptr);

/** Run @p plan's downgrade tier alone (the engine's memory fallback). */
CascadeOutcome runDowngrade(const RoutePlan &plan,
                            const seq::SequencePair &pair,
                            const CancelToken &cancel, ScratchArena &arena);

/**
 * Align @p pair through the cascade: planRoute plus runPlan. With
 * @p want_cigar the result carries a full traceback (tier 1 only sizes
 * its band); without it the result is tier 1's exact distance. Uses a
 * thread-local arena, so standalone
 * callers still skip per-call heap traffic after warmup.
 */
CascadeOutcome cascadeAlign(const seq::SequencePair &pair,
                            const CascadeConfig &config, bool want_cigar,
                            const CancelToken &cancel = {});

/** Same, drawing every tier's scratch from @p arena (see runPlan). */
CascadeOutcome cascadeAlign(const seq::SequencePair &pair,
                            const CascadeConfig &config, bool want_cigar,
                            const CancelToken &cancel, ScratchArena &arena);

/**
 * The registry kernel the full tier runs for a request: the configured
 * full_kernel, except that a distance-only request under the default
 * "gmx-full" runs scalar "bpm", the same exact Myers recurrence without
 * the GMX tile emulation.
 */
const kernel::AlignerDescriptor &fullTierKernel(const CascadeConfig &config,
                                                bool want_cigar);

/** The band budget k the cascade runs with for an n x m pair: the
 *  configured filter_k, or the auto policy when it is 0. */
inline i64
cascadeFilterK(const CascadeConfig &config, size_t n, size_t m)
{
    return config.filter_k > 0 ? config.filter_k
                               : cascadeAutoFilterK(n, m);
}

} // namespace gmx::engine

#endif // GMX_ENGINE_CASCADE_HH

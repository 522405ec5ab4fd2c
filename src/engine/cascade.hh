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
 *   3. Full — the whole DP-matrix; always exact, the fallback when the
 *      pair diverges too much for any band the budget allows. A
 *      traceback runs Full(GMX); a distance-only request runs scalar
 *      "bpm", the same exact recurrence without the tile emulation
 *      (fullTierKernel).
 *
 * Every tier is exact when it answers (Bitap and Banded(GMX) both report
 * the true edit distance whenever they report success), so the cascade
 * returns bit-identical distances — and, because Banded(GMX) and
 * Full(GMX) share the same tile traceback with the same tie-breaking,
 * identical CIGARs — to running Full(GMX) on every pair.
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
 * One planned kernel invocation: the tier it counts toward, the registry
 * kernel that runs it and its base parameters. The banded tier's k is
 * the band of its first doubling (twice the filter's k); a filter hit
 * replaces it with the exact distance at run time.
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
    static constexpr size_t kMaxTiers = 3; //!< filter, banded, full

    align::LengthClass klass = align::LengthClass::Short;
    bool want_cigar = true;

    /** Tiers in execution order; the last one always answers. */
    std::array<PlannedTier, kMaxTiers> tiers{};
    size_t tier_count = 0;

    /** Banded attempts (band doubling each time) after a filter miss. */
    int band_doublings = 0;

    /**
     * The memory-frugal traceback the engine runs when the budget cannot
     * admit admission_bytes: "hirschberg", planned for short-class CIGAR
     * requests only (desc is null otherwise). A long-class request never
     * downgrades: its streamed tier is already the frugal option.
     */
    PlannedTier downgrade{};
    size_t downgrade_bytes = 0;

    /**
     * The request may ride a packed filter group (cascadeFilterBatch):
     * distance-only, short class, cascade on with the "bitap" filter
     * and a pair that fits a batch lane. The tier list then starts with
     * the filter.
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
 * One request's slot in a batched filter-tier run. The engine's lane
 * packer fills pair/cancel/k, cascadeFilterBatch() fills the outputs:
 * the filter verdict exactly as the scalar filter tier would have
 * produced it (found with the exact distance iff distance <= k,
 * not-found otherwise — the batch kernel's exact distance on a miss is
 * discarded so runPlan continues attempt for attempt as the scalar
 * cascade would), plus the per-lane work record to seed the request's
 * outcome with. A lane whose pair is null never ran in a group.
 */
struct FilterLane
{
    const seq::SequencePair *pair = nullptr;
    CancelToken cancel{};
    i64 k = 0; //!< the filter tier's budget from the request's plan

    // Outputs.
    Status status{};              //!< Cancelled / DeadlineExceeded
    align::AlignResult filtered;  //!< scalar-identical filter verdict
    CascadeAttempt attempt;       //!< this lane's Filter-tier attempt
    KernelCounts counts;          //!< this lane's own kernel work
    u64 reserved_share = 0; //!< the lane's share of the group's budget grant
};

/**
 * Run the cascade's filter tier for up to four requests as one packed
 * kernel invocation (simd::bpmDistanceBatchLanes), producing per-lane
 * verdicts bit-identical to the scalar "bitap" filter: both compute the
 * exact distance and apply the same d <= k decision, so a packed request
 * continues through banded/full exactly as if it had run alone. Every
 * lane must come from a packable plan.
 */
void cascadeFilterBatch(std::span<FilterLane *const> lanes,
                        ScratchArena &arena);

/**
 * Execute @p plan for @p pair: each tier in order until one answers
 * (filter hit + no cigar -> done; hit + cigar -> one banded attempt at
 * the exact distance; miss -> band doublings, then the full tier). With
 * @p packed, the filter tier already ran in a packed group and its lane
 * verdict, attempt and counts stand in for it.
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
 * @p want_cigar the result carries a full traceback (so tier 1 can only
 * pre-filter, never answer); without it the result is distance-only and
 * may finish at any tier. Uses a thread-local arena, so standalone
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

/** The effective filter budget the cascade runs with for an n x m pair:
 *  the configured filter_k, or the auto policy when it is 0. */
inline i64
cascadeFilterK(const CascadeConfig &config, size_t n, size_t m)
{
    return config.filter_k > 0 ? config.filter_k
                               : cascadeAutoFilterK(n, m);
}

} // namespace gmx::engine

#endif // GMX_ENGINE_CASCADE_HH

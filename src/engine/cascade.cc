#include "engine/cascade.hh"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/logging.hh"
#include "common/timer.hh"
#include "kernel/registry.hh"
#include "kernel/simd/bpm_simd.hh"

namespace gmx::engine {

namespace {

/**
 * One planned kernel invocation. The cascade policy (what to try next,
 * when an answer is final) stays here; everything kernel-specific lives
 * behind the registry descriptor.
 */
struct TierPlan
{
    Tier tier;
    const kernel::AlignerDescriptor *desc;
    kernel::KernelParams params;
};

/** Run one planned invocation and charge it to the outcome's work log. */
align::AlignResult
runTier(CascadeOutcome &out, const TierPlan &plan,
        const seq::SequencePair &pair, const CancelToken &cancel,
        ScratchArena &arena, PeqMemo &memo)
{
    KernelCounts counts;
    KernelContext ctx(cancel, &counts, &arena);
    ctx.setPeqMemo(&memo);
    Timer timer;
    align::AlignResult r = plan.desc->run(pair, plan.params, ctx);
    const KernelContext::Phases phases = ctx.takePhases();
    out.counts += counts;
    out.attempts.push_back({plan.tier, counts.cells, timer.seconds() * 1e6,
                            false, static_cast<double>(phases.setup_us),
                            static_cast<double>(phases.kernel_us)});
    return r;
}

/** Mark the last attempt as the one that answered. */
CascadeOutcome
answered(CascadeOutcome out, Tier tier, align::AlignResult result)
{
    out.tier = tier;
    out.result = std::move(result);
    out.attempts.back().answered = true;
    return out;
}

/** Tier 3 — the exact fallback, always answers. */
CascadeOutcome
runFullTier(CascadeOutcome out, const seq::SequencePair &pair,
            const CascadeConfig &cfg, bool want_cigar,
            const CancelToken &cancel, ScratchArena &arena, PeqMemo &memo)
{
    kernel::KernelParams params;
    params.want_cigar = want_cigar;
    params.tile = cfg.tile;
    align::AlignResult r =
        runTier(out, {Tier::Full, &fullTierKernel(cfg, want_cigar), params},
                pair, cancel, arena, memo);
    return answered(std::move(out), Tier::Full, std::move(r));
}

/**
 * Everything after the filter tier: the ONE banded/full continuation,
 * shared by cascadeAlign (filter ran inline) and
 * cascadeContinueAfterFilter (filter ran in a packed batch), so the two
 * paths cannot drift. @p out already carries the filter attempt.
 */
CascadeOutcome
finishAfterFilter(CascadeOutcome out, const seq::SequencePair &pair,
                  const CascadeConfig &cfg, bool want_cigar,
                  const CancelToken &cancel, ScratchArena &arena,
                  PeqMemo &memo, const align::AlignResult &filtered, i64 k)
{
    if (filtered.found() && !want_cigar)
        return answered(std::move(out), Tier::Filter, filtered);

    // Tier 2 — banded. A filter hit pins the band to the exact distance
    // (guaranteed to succeed); a miss tries growing bands.
    const kernel::AlignerDescriptor &banded =
        kernel::AlignerRegistry::instance().require(cfg.banded_kernel);
    kernel::KernelParams band_params;
    band_params.want_cigar = want_cigar;
    band_params.tile = cfg.tile;
    band_params.enforce_bound = true;
    const int band_attempts = filtered.found() ? 1 : cfg.band_doublings;
    i64 band = filtered.found() ? std::max<i64>(filtered.distance, 1)
                                : 2 * k;
    for (int attempt = 0; attempt < band_attempts; ++attempt, band *= 2) {
        band_params.k = band;
        align::AlignResult r =
            runTier(out, {Tier::Banded, &banded, band_params}, pair, cancel,
                    arena, memo);
        if (r.found())
            return answered(std::move(out), Tier::Banded, std::move(r));
    }

    return runFullTier(std::move(out), pair, cfg, want_cigar, cancel, arena,
                       memo);
}

} // namespace

const kernel::AlignerDescriptor &
fullTierKernel(const CascadeConfig &cfg, bool want_cigar)
{
    // Only a traceback needs the GMX tiles; for a distance the scalar
    // Myers kernel runs the same exact recurrence without emulating them.
    const bool distance_by_bpm =
        !want_cigar && std::string_view(cfg.full_kernel) == "gmx-full";
    return kernel::AlignerRegistry::instance().require(
        distance_by_bpm ? "bpm" : cfg.full_kernel);
}

CascadeOutcome
cascadeAlign(const seq::SequencePair &pair, const CascadeConfig &cfg,
             bool want_cigar, const CancelToken &cancel, ScratchArena &arena)
{
    const auto &registry = kernel::AlignerRegistry::instance();
    const size_t n = pair.pattern.size();
    const size_t m = pair.text.size();
    CascadeOutcome out;
    // One Peq memo for the whole cascade: every bit-parallel tier retry on
    // this pattern (band doublings, tier escalation) reuses the first
    // attempt's match-mask table instead of rebuilding it.
    PeqMemo memo;

    // Long length class: the streaming windowed tier answers alone, in
    // O(window) memory. No filter or band attempt precedes it — the
    // short-class tiers all materialize O(n) state or worse, which is
    // exactly what this route exists to avoid.
    if (lengthClassFor(cfg, n, m) == align::LengthClass::Long) {
        const kernel::AlignerDescriptor &stream =
            registry.require(cfg.long_kernel);
        kernel::KernelParams sp;
        sp.want_cigar = want_cigar;
        sp.tile = cfg.tile;
        sp.window = cfg.long_window;
        sp.overlap = cfg.long_overlap;
        align::AlignResult r = runTier(out, {Tier::Streamed, &stream, sp},
                                       pair, cancel, arena, memo);
        return answered(std::move(out), Tier::Streamed, std::move(r));
    }

    // Degenerate pairs skip the heuristics; the full tier handles them.
    if (!cfg.enabled || n == 0 || m == 0)
        return runFullTier(std::move(out), pair, cfg, want_cigar, cancel,
                           arena, memo);

    // Tier 1 — distance-only filter. When it finds the pair within k,
    // the distance is exact; distance-only requests are done.
    const i64 k = cascadeFilterK(cfg, n, m);
    kernel::KernelParams filter_params;
    filter_params.want_cigar = false;
    filter_params.k = k;
    filter_params.tile = cfg.tile;
    const align::AlignResult filtered =
        runTier(out,
                {Tier::Filter, &registry.require(cfg.filter_kernel),
                 filter_params},
                pair, cancel, arena, memo);
    return finishAfterFilter(std::move(out), pair, cfg, want_cigar, cancel,
                             arena, memo, filtered, k);
}

CascadeOutcome
cascadeAlign(const seq::SequencePair &pair, const CascadeConfig &cfg,
             bool want_cigar, const CancelToken &cancel)
{
    thread_local ScratchArena arena;
    arena.reset();
    return cascadeAlign(pair, cfg, want_cigar, cancel, arena);
}

void
cascadeFilterBatch(std::span<FilterLane> lanes, const CascadeConfig &cfg,
                   ScratchArena &arena)
{
    GMX_ASSERT(lanes.size() >= 1 && lanes.size() <= simd::kBatchLanes,
               "cascadeFilterBatch: 1..4 lanes per group");
    simd::BatchLane bl[simd::kBatchLanes];
    for (size_t i = 0; i < lanes.size(); ++i) {
        bl[i].pair = lanes[i].pair;
        bl[i].cancel = lanes[i].cancel;
    }
    KernelContext ctx(CancelToken{}, nullptr, &arena);
    Timer timer;
    simd::bpmDistanceBatchLanes({bl, lanes.size()}, ctx);
    const KernelContext::Phases phases = ctx.takePhases();
    // The group shares one kernel invocation; each lane's attempt carries
    // an even share of the wall/phase time (its cells are its own), so
    // summing attempts across fused requests reproduces the group totals.
    const double share = 1.0 / static_cast<double>(lanes.size());
    const double micros = timer.seconds() * 1e6 * share;
    const double setup_us = static_cast<double>(phases.setup_us) * share;
    const double kernel_us = static_cast<double>(phases.kernel_us) * share;
    for (size_t i = 0; i < lanes.size(); ++i) {
        FilterLane &lane = lanes[i];
        lane.status = bl[i].status;
        lane.counts = bl[i].counts;
        if (lane.status.ok()) {
            const i64 k = cascadeFilterK(cfg, lane.pair->pattern.size(),
                                         lane.pair->text.size());
            // The scalar filter's contract: found with the exact distance
            // iff d <= k. The batch kernel knows the exact distance even
            // past k, but reporting it would diverge the continuation
            // from the scalar cascade — a miss stays a miss.
            if (bl[i].distance <= k)
                lane.filtered.distance = bl[i].distance;
        }
        lane.attempt = {Tier::Filter, lane.counts.cells, micros, false,
                        setup_us, kernel_us};
    }
}

CascadeOutcome
cascadeContinueAfterFilter(const seq::SequencePair &pair,
                           const CascadeConfig &cfg, bool want_cigar,
                           const CancelToken &cancel, ScratchArena &arena,
                           const FilterLane &lane)
{
    CascadeOutcome out;
    out.counts = lane.counts;
    out.attempts.push_back(lane.attempt);
    // Fresh memo: the filter batch built its masks in lane-packed layout,
    // so the banded/full tiers rebuild theirs exactly as the scalar
    // cascade's later tiers would after a bitap filter.
    PeqMemo memo;
    const i64 k = cascadeFilterK(cfg, pair.pattern.size(),
                                 pair.text.size());
    return finishAfterFilter(std::move(out), pair, cfg, want_cigar, cancel,
                             arena, memo, lane.filtered, k);
}

} // namespace gmx::engine

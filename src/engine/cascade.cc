#include "engine/cascade.hh"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/logging.hh"
#include "common/timer.hh"
#include "kernel/simd/bpm_simd.hh"

namespace gmx::engine {

namespace {

/** Run one planned invocation and charge it to the outcome's work log. */
align::AlignResult
runTier(CascadeOutcome &out, const PlannedTier &plan,
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

RoutePlan
planRoute(const CascadeConfig &cfg, size_t n, size_t m, bool want_cigar)
{
    const auto &registry = kernel::AlignerRegistry::instance();
    RoutePlan plan;
    plan.klass = lengthClassFor(cfg, n, m);
    plan.want_cigar = want_cigar;
    auto add = [&](Tier tier, const kernel::AlignerDescriptor &desc,
                   const kernel::KernelParams &params) {
        plan.tiers[plan.tier_count++] = {tier, &desc, params};
    };
    kernel::KernelParams base;
    base.want_cigar = want_cigar;
    base.tile = cfg.tile;

    // Long length class: the streaming windowed tier answers alone, in
    // O(window) memory. No filter or band attempt precedes it — the
    // short-class tiers all materialize O(n) state or worse, which is
    // exactly what this route exists to avoid. Its footprint is the
    // window geometry's, not the pair's, so a 1 Mbp pair reserves the
    // same bytes as a 100 kbp one.
    if (plan.klass == align::LengthClass::Long) {
        kernel::KernelParams sp = base;
        sp.window = cfg.long_window;
        sp.overlap = cfg.long_overlap;
        add(Tier::Streamed, registry.require(cfg.long_kernel), sp);
        plan.admission_bytes = plan.tiers[0].desc->scratch_bytes(n, m, sp);
        return plan;
    }

    // Degenerate pairs skip the heuristics; the full tier handles them.
    const bool filtered = cfg.enabled && n > 0 && m > 0;
    if (filtered) {
        const i64 k = cascadeFilterK(cfg, n, m);
        kernel::KernelParams fp = base;
        fp.want_cigar = false;
        fp.k = k;
        add(Tier::Filter, registry.require(cfg.filter_kernel), fp);
        kernel::KernelParams bp = base;
        bp.enforce_bound = true;
        bp.k = 2 * k;
        add(Tier::Banded, registry.require(cfg.banded_kernel), bp);
        plan.band_doublings = cfg.band_doublings;
    }
    add(Tier::Full, fullTierKernel(cfg, want_cigar), base);

    // Admission: tier kernels run back to back on one arena and each
    // rewinds its frame, so the request's peak is the larger of the full
    // tier (traceback requests pay the whole edge matrix) and the filter
    // at its k. The banded tier's band is only fixed at run time; its
    // scratch stays under that maximum (CascadePlan tests pin it).
    for (const PlannedTier &t : plan.route())
        if (t.tier != Tier::Banded)
            plan.admission_bytes =
                std::max(plan.admission_bytes,
                         t.desc->scratch_bytes(n, m, t.params));

    if (want_cigar) {
        plan.downgrade = {Tier::Downgraded, &registry.require("hirschberg"),
                          {}};
        plan.downgrade_bytes =
            plan.downgrade.desc->scratch_bytes(n, m, plan.downgrade.params);
    }
    // The batch kernel reproduces the "bitap" filter's found-iff-d<=k
    // contract bit for bit; a CIGAR request's filter never answers, so
    // packing it would buy nothing.
    plan.packable = filtered && !want_cigar &&
                    std::string_view(cfg.filter_kernel) == "bitap" &&
                    simd::batchLaneFits(n, m);
    return plan;
}

CascadeOutcome
runPlan(const RoutePlan &plan, const seq::SequencePair &pair,
        const CancelToken &cancel, ScratchArena &arena,
        const FilterLane *packed)
{
    GMX_ASSERT(packed == nullptr || plan.packable,
               "runPlan: a packed verdict needs a packable plan");
    CascadeOutcome out;
    // One Peq memo for the whole cascade: every bit-parallel tier retry on
    // this pattern (band doublings, tier escalation) reuses the first
    // attempt's match-mask table instead of rebuilding it. A packed
    // filter built its masks in lane layout, so the later tiers then
    // rebuild theirs as they would after a scalar bitap filter.
    PeqMemo memo;
    align::AlignResult filtered; // not found until a filter tier finds it
    for (const PlannedTier &t : plan.route()) {
        switch (t.tier) {
          case Tier::Filter:
            if (packed != nullptr) {
                out.counts = packed->counts;
                out.attempts.push_back(packed->attempt);
                filtered = packed->filtered;
            } else {
                filtered = runTier(out, t, pair, cancel, arena, memo);
            }
            // A hit's distance is exact; distance-only requests are done.
            if (filtered.found() && !plan.want_cigar)
                return answered(std::move(out), Tier::Filter,
                                std::move(filtered));
            break;
          case Tier::Banded: {
            // A filter hit pins the band to the exact distance (guaranteed
            // to succeed); a miss tries growing bands.
            PlannedTier band = t;
            int tries = plan.band_doublings;
            if (filtered.found()) {
                band.params.k = std::max<i64>(filtered.distance, 1);
                tries = 1;
            }
            for (int i = 0; i < tries; ++i, band.params.k *= 2) {
                align::AlignResult r =
                    runTier(out, band, pair, cancel, arena, memo);
                if (r.found())
                    return answered(std::move(out), Tier::Banded,
                                    std::move(r));
            }
            break;
          }
          default: {
            // Full or Streamed: always answers.
            align::AlignResult r = runTier(out, t, pair, cancel, arena, memo);
            return answered(std::move(out), t.tier, std::move(r));
          }
        }
    }
    GMX_FATAL("runPlan: the route ended without an answering tier");
}

CascadeOutcome
runDowngrade(const RoutePlan &plan, const seq::SequencePair &pair,
             const CancelToken &cancel, ScratchArena &arena)
{
    GMX_ASSERT(plan.downgrade.desc != nullptr,
               "runDowngrade: the plan has no downgrade tier");
    CascadeOutcome out;
    PeqMemo memo;
    align::AlignResult r =
        runTier(out, plan.downgrade, pair, cancel, arena, memo);
    return answered(std::move(out), Tier::Downgraded, std::move(r));
}

CascadeOutcome
cascadeAlign(const seq::SequencePair &pair, const CascadeConfig &cfg,
             bool want_cigar, const CancelToken &cancel, ScratchArena &arena)
{
    return runPlan(
        planRoute(cfg, pair.pattern.size(), pair.text.size(), want_cigar),
        pair, cancel, arena);
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
cascadeFilterBatch(std::span<FilterLane *const> lanes, ScratchArena &arena)
{
    GMX_ASSERT(lanes.size() >= 1 && lanes.size() <= simd::kBatchLanes,
               "cascadeFilterBatch: 1..4 lanes per group");
    simd::BatchLane bl[simd::kBatchLanes];
    for (size_t i = 0; i < lanes.size(); ++i) {
        bl[i].pair = lanes[i]->pair;
        bl[i].cancel = lanes[i]->cancel;
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
        FilterLane &lane = *lanes[i];
        lane.status = bl[i].status;
        lane.counts = bl[i].counts;
        // The scalar filter's contract: found with the exact distance iff
        // d <= k. The batch kernel knows the exact distance even past k,
        // but reporting it would diverge the continuation from the scalar
        // cascade — a miss stays a miss.
        if (lane.status.ok() && bl[i].distance <= lane.k)
            lane.filtered.distance = bl[i].distance;
        lane.attempt = {Tier::Filter, lane.counts.cells, micros, false,
                        setup_us, kernel_us};
    }
}

} // namespace gmx::engine

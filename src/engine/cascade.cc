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
        ScratchArena &arena)
{
    KernelCounts counts;
    KernelContext ctx(cancel, &counts, &arena);
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
    // O(window) memory. No distance or band attempt precedes it — the
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

    // Degenerate pairs skip tier 1; the full tier handles them.
    if (cfg.enabled && n > 0 && m > 0) {
        // Tier 1 answers every distance-only request and sizes every
        // traceback's band, so it must never miss.
        const kernel::AlignerDescriptor &first =
            registry.require(cfg.filter_kernel);
        if (!first.exact || first.banded)
            GMX_FATAL("planRoute: tier-1 kernel '%s' must be exact and "
                      "unbanded",
                      first.name);
        kernel::KernelParams fp = base;
        fp.want_cigar = false;
        add(Tier::Filter, first, fp);
        if (want_cigar) {
            kernel::KernelParams bp = base;
            bp.enforce_bound = true;
            bp.k = 2 * cascadeFilterK(cfg, n, m);
            add(Tier::Banded, registry.require(cfg.banded_kernel), bp);
        }
    }
    if (plan.tier_count == 0 || want_cigar)
        add(Tier::Full, fullTierKernel(cfg, want_cigar), base);

    // Admission: tier kernels run back to back on one arena and each
    // rewinds its frame, so the request's peak is the largest planned
    // tier. The banded tier never runs wider than its planned 2k.
    for (const PlannedTier &t : plan.route())
        plan.admission_bytes = std::max(
            plan.admission_bytes, t.desc->scratch_bytes(n, m, t.params));

    if (want_cigar) {
        plan.downgrade = {Tier::Downgraded, &registry.require("hirschberg"),
                          {}};
        plan.downgrade_bytes =
            plan.downgrade.desc->scratch_bytes(n, m, plan.downgrade.params);
    }
    // A packed lane computes exactly the "bpm" distance; a CIGAR request
    // needs its own traceback, so packing it would buy nothing.
    plan.packable = !want_cigar && plan.route()[0].tier == Tier::Filter &&
                    std::string_view(cfg.filter_kernel) == "bpm" &&
                    simd::batchLaneFits(n, m);
    return plan;
}

CascadeOutcome
runPlan(const RoutePlan &plan, const seq::SequencePair &pair,
        const CancelToken &cancel, ScratchArena &arena,
        const FilterLane *packed)
{
    GMX_ASSERT(packed == nullptr || plan.packable,
               "runPlan: a packed lane needs a packable plan");
    CascadeOutcome out;
    const auto route = plan.route();
    align::AlignResult first;
    if (packed != nullptr) {
        out.counts = packed->counts;
        out.attempts.push_back(packed->attempt);
        first = packed->result;
    } else {
        first = runTier(out, route[0], pair, cancel, arena);
    }
    if (route.size() == 1)
        return answered(std::move(out), route[0].tier, std::move(first));

    // A traceback: one attempt, at the band tier 1's exact distance
    // fixes, or over the full grid when that band would pass 2k.
    for (PlannedTier t : route.subspan(1)) {
        if (t.tier == Tier::Banded) {
            if (first.distance > t.params.k)
                continue;
            t.params.k = std::max<i64>(first.distance, 1);
        }
        align::AlignResult r = runTier(out, t, pair, cancel, arena);
        GMX_ASSERT(r.found(), "runPlan: a band at the exact distance "
                              "must answer");
        return answered(std::move(out), t.tier, std::move(r));
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
    align::AlignResult r = runTier(out, plan.downgrade, pair, cancel, arena);
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
        if (lane.status.ok())
            lane.result.distance = bl[i].distance;
        lane.attempt = {Tier::Filter, lane.counts.cells, micros, false,
                        setup_us, kernel_us};
    }
}

} // namespace gmx::engine

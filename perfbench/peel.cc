#include "peel.hh"

#include <array>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <thread>

#include "engine/cascade.hh"
#include "kernel/dispatch.hh"
#include "kernel/registry.hh"
#include "loops.hh"

namespace perfbench {

using namespace gmx;

namespace {

/** Entry points, outermost last; each wraps the one before it. */
enum Entry : size_t { kKernel, kCascade, kEngine, kRouter, kWire, kEntries };
constexpr std::array<const char *, kEntries> kEntryNames = {
    "kernel", "cascade", "engine", "router", "wire"};
constexpr std::array<const char *, kEntries> kSelfNames = {
    "peel.kernel_us", "peel.cascade_self_us", "peel.engine_self_us",
    "peel.router_self_us", "peel.wire_self_us"};

/** Requests sent before the sample on every fresh stack (not recorded). */
constexpr size_t kWarm = 8;

/** Idle time before each timed call, long enough for workers to park. */
constexpr auto kIdleGap = std::chrono::microseconds(200);

struct Span
{
    const char *name;
    double start_us;
    double end_us;
    u64 request_id;
    int rep;
};

struct KernelCall
{
    const kernel::AlignerDescriptor *desc;
    kernel::KernelParams params;
};

/**
 * The kernel calls cascadeAlign made for one request, rebuilt from its
 * attempt log and the cascade's documented policy (filter at k; banded
 * pinned to a filter hit's distance, else doubling from 2k; full). Empty
 * when a tier has no known kernel; the kernel entry then falls back to
 * the cascade's own per-attempt timers.
 */
std::vector<KernelCall>
kernelPlan(const seq::SequencePair &pair, const engine::CascadeConfig &cfg,
           bool want_cigar, const engine::CascadeOutcome &o)
{
    const auto &registry = kernel::AlignerRegistry::instance();
    const i64 k =
        engine::cascadeFilterK(cfg, pair.pattern.size(), pair.text.size());
    i64 band = o.result.distance <= k ? std::max<i64>(o.result.distance, 1)
                                      : 2 * k;
    std::vector<KernelCall> plan;
    for (const auto &a : o.attempts) {
        const std::string_view tier = engine::tierName(a.tier);
        kernel::KernelParams p;
        p.want_cigar = want_cigar;
        p.tile = cfg.tile;
        const char *name = nullptr;
        if (tier == "filter") {
            name = cfg.filter_kernel;
            p.want_cigar = false;
            p.k = k;
        } else if (tier == "banded") {
            name = cfg.banded_kernel;
            p.enforce_bound = true;
            p.k = band;
            band *= 2;
        } else if (tier == "full") {
            name = cfg.full_kernel;
        } else {
            return {};
        }
        plan.push_back(
            {&registry.require(kernel::dispatchKernel(name)), p});
    }
    return plan;
}

/** Up to @p n distinct pool indices, in draw order. */
std::vector<u32>
distinctRequests(const Workload &w, size_t n)
{
    Draw draw(w);
    std::vector<u8> seen(w.pairs.size(), 0);
    std::vector<u32> out;
    for (size_t tries = 0; out.size() < n && tries < 64 * w.pairs.size();
         ++tries) {
        const u32 p = draw.next();
        if (!seen[p]) {
            seen[p] = 1;
            out.push_back(p);
        }
    }
    return out;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void
writeSpans(const PeelConfig &cfg, const Workload &w,
           const std::vector<Span> &spans, const Metrics &peel_metrics,
           size_t samples)
{
    std::ofstream f(cfg.spans_path);
    f << "{\"workload\":\"" << w.name << "\",\"seed\":" << w.seed
      << ",\"meta\":" << (cfg.meta_json.empty() ? "{}" : cfg.meta_json)
      << ",\"samples\":" << samples << ",\"reps\":" << cfg.reps
      << ",\"peel\":{";
    for (size_t i = 0; i < peel_metrics.size(); ++i)
        f << (i ? "," : "") << '"' << peel_metrics[i].name
          << "\":" << peel_metrics[i].value;
    f << "},\"spans\":[";
    char buf[256];
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                      "\"request_id\":%llu,\"rep\":%d,\"workload\":\"%s\"}",
                      i ? "," : "", s.name, s.start_us, s.end_us,
                      static_cast<unsigned long long>(s.request_id), s.rep,
                      w.name.c_str());
        f << buf;
    }
    f << "]}\n";
}

} // namespace

void
peel(const Workload &w, const PeelConfig &cfg, Gate &gate, Metrics &out)
{
    const engine::CascadeConfig ccfg;
    const std::vector<u32> ids = distinctRequests(w, cfg.samples + kWarm);
    const size_t warm = std::min(kWarm, ids.size() / 2);
    const size_t samples = ids.size() - warm;
    // Visit order on every fresh stack: warm-up requests, then the sample.
    std::vector<size_t> order;
    for (size_t k = samples; k < ids.size(); ++k)
        order.push_back(k);
    for (size_t k = 0; k < samples; ++k)
        order.push_back(k);

    ScratchArena arena;
    std::vector<std::vector<KernelCall>> plans;
    for (const u32 p : ids) {
        arena.reset();
        const bool cigar = w.want_cigar[p] != 0;
        plans.push_back(kernelPlan(
            w.pairs[p], ccfg, cigar,
            engine::cascadeAlign(w.pairs[p], ccfg, cigar, CancelToken{},
                                 arena)));
    }

    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::array<double, kEntries>> best(samples);
    for (auto &b : best)
        b.fill(kInf);
    std::vector<double> unloaded(samples, kInf);
    std::vector<Span> spans;
    const auto origin = Clock::now();
    auto us = [&](Clock::time_point t) {
        return secondsBetween(origin, t) * 1e6;
    };
    engine::Engine eng(engineConfig());

    // One call of entry @p e for request @p k; returns its duration in
    // microseconds when the entry measures itself, else a negative value.
    serve::ShardRouter *router = nullptr;
    auto call = [&](size_t e, size_t k, WireStack *stack) -> double {
        const u32 p = ids[k];
        const auto &pair = w.pairs[p];
        const bool cigar = w.want_cigar[p] != 0;
        switch (e) {
        case kKernel: {
            arena.reset();
            if (plans[k].empty()) {
                // Unknown tier: the cascade's own attempt timers stand in
                // for the kernel entry.
                double in_kernels = 0.0;
                for (const auto &a : engine::cascadeAlign(pair, ccfg, cigar,
                                                          CancelToken{}, arena)
                                         .attempts)
                    in_kernels += a.micros;
                return in_kernels;
            }
            PeqMemo memo;
            align::AlignResult last;
            for (const KernelCall &c : plans[k]) {
                KernelContext ctx(CancelToken{}, nullptr, &arena);
                ctx.setPeqMemo(&memo);
                last = c.desc->run(pair, c.params, ctx);
            }
            gate.check(p, last, "peel kernel plan");
            return -1;
        }
        case kCascade:
            arena.reset();
            gate.check(p,
                       engine::cascadeAlign(pair, ccfg, cigar, CancelToken{},
                                            arena)
                           .result,
                       "peel cascadeAlign");
            return -1;
        case kEngine: {
            engine::SubmitOptions opts;
            opts.want_cigar = cigar;
            gate.check(p, eng.submit(pair, std::move(opts)).get(),
                       "peel Engine::submit");
            return -1;
        }
        case kRouter: {
            serve::Ticket ticket = router->submit(pair, cigar, 0);
            const auto r = ticket.future.get();
            router->complete(ticket, r.code());
            gate.check(p, r, "peel ShardRouter::submit");
            return -1;
        }
        default: {
            const auto r = wireRoundTrip(stack->client(), w, p, p);
            if (!r.ok())
                gate.fail("peel wire round trip: " + r.status().toString());
            gate.check(p, r, "peel AlignClient");
            return -1;
        }
        }
    };

    // Times one call after an idle gap, so every call meets parked worker
    // threads; a sampled request keeps its fastest time in @p slot.
    auto timed = [&](const char *name, size_t e, size_t k, int rep,
                     WireStack *stack, double *slot) {
        std::this_thread::sleep_for(kIdleGap);
        const auto t0 = Clock::now();
        const double self_us = call(e, k, stack);
        const auto t1 = Clock::now();
        if (k >= samples)
            return;
        const double d = self_us >= 0 ? self_us : us(t1) - us(t0);
        spans.push_back({name, us(t0), us(t0) + d, ids[k], rep});
        *slot = std::min(*slot, d);
    };

    // Entry-major passes: each entry point's calls follow one another, so
    // the cache and thread state a call meets is the same for every entry
    // (interleaving entries per request lets one entry warm the next).
    // The router and servers are built fresh right before their calls, so
    // every sampled request misses their dedup caches. The wire entry
    // alternates, request by request, with the independent unloaded round
    // trip on a second server, so drift in machine speed hits both alike.
    // Odd passes visit the entries in reverse for the same reason.
    for (int rep = 0; rep < cfg.reps && gate.ok(); ++rep) {
        for (size_t i = 0; i < kEntries && gate.ok(); ++i) {
            const size_t e = rep % 2 == 0 ? i : kEntries - 1 - i;
            serve::ServeMetrics router_metrics;
            std::unique_ptr<serve::ShardRouter> fresh_router;
            std::unique_ptr<WireStack> chain, independent;
            if (e == kRouter) {
                fresh_router = std::make_unique<serve::ShardRouter>(
                    std::vector<engine::Engine *>{&eng},
                    serve::RouterConfig{}, &router_metrics);
                router = fresh_router.get();
            }
            if (e == kWire) {
                chain = std::make_unique<WireStack>();
                independent = std::make_unique<WireStack>();
                for (WireStack *stack : {chain.get(), independent.get()}) {
                    if (Status s = stack->start(); !s.ok()) {
                        gate.fail("peel wire set-up: " + s.toString());
                        return;
                    }
                }
            }
            for (const size_t k : order) {
                double scratch = kInf;
                double *slot = k < samples ? &best[k][e] : &scratch;
                if (e != kWire) {
                    timed(kEntryNames[e], e, k, rep, nullptr, slot);
                } else {
                    double *other = k < samples ? &unloaded[k] : &scratch;
                    const bool chain_first = k % 2 == 0;
                    timed(chain_first ? "wire" : "unloaded", e, k, rep,
                          (chain_first ? chain : independent).get(),
                          chain_first ? slot : other);
                    timed(chain_first ? "unloaded" : "wire", e, k, rep,
                          (chain_first ? independent : chain).get(),
                          chain_first ? other : slot);
                }
                if (!gate.ok())
                    return;
            }
        }
    }

    Metrics peel_metrics;
    std::array<double, kEntries> self{};
    double sum = 0.0;
    for (size_t e = 0; e < kEntries; ++e) {
        std::vector<double> d;
        for (const auto &b : best)
            d.push_back(e == 0 ? b[e] : b[e] - b[e - 1]);
        self[e] = mean(d);
        sum += self[e];
        peel_metrics.push_back({kSelfNames[e], self[e], "us"});
    }
    const double e2e = mean(unloaded);
    const double residual = e2e - sum;
    peel_metrics.push_back({"peel.unloaded_us", e2e, "us"});
    peel_metrics.push_back(
        {"peel.residual_ratio", e2e > 0 ? residual / e2e : 0.0, "ratio"});

    std::printf("peel %s: %zu distinct requests, one at a time, fastest of "
                "%d passes per entry point\n",
                w.name.c_str(), samples, cfg.reps);
    std::printf("  %-10s %12s %8s\n", "layer", "self_us", "share");
    for (size_t e = 0; e < kEntries; ++e)
        std::printf("  %-10s %12.3f %7.1f%%\n", kEntryNames[e], self[e],
                    e2e > 0 ? 100.0 * self[e] / e2e : 0.0);
    std::printf("  %-10s %12.3f %7.1f%%\n", "sum", sum,
                e2e > 0 ? 100.0 * sum / e2e : 0.0);
    std::printf("  %-10s %12.3f  (independent unloaded wire round trip)\n",
                "unloaded", e2e);
    std::printf("  %-10s %12.3f %7.1f%%\n", "residual", residual,
                e2e > 0 ? 100.0 * residual / e2e : 0.0);

    if (!cfg.spans_path.empty())
        writeSpans(cfg, w, spans, peel_metrics, samples);
    out.insert(out.end(), peel_metrics.begin(), peel_metrics.end());
}

} // namespace perfbench

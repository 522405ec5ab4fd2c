#include "layers.hh"

#include "engine/cascade.hh"
#include "kernel/dispatch.hh"
#include "kernel/registry.hh"
#include "kernel/simd/bpm_simd.hh"
#include "loops.hh"
#include "serve/protocol.hh"

namespace perfbench {

using namespace gmx;

namespace {

/** Requests per single-thread pass (a multiple of 3 and of 4 lanes). */
constexpr size_t kSample = 192;
constexpr size_t kMinPasses = 3;

/** The first @p n requests of @p w's draw. */
std::vector<u32>
sampleRequests(const Workload &w, size_t n)
{
    Draw draw(w);
    std::vector<u32> out(n);
    for (u32 &r : out)
        r = draw.next();
    return out;
}

/** Runs @p pass until @p budget_s is spent, and at least kMinPasses times. */
template <typename Pass>
void
repeatPasses(double budget_s, Pass &&pass)
{
    const auto start = Clock::now();
    for (size_t n = 0;
         n < kMinPasses || secondsBetween(start, Clock::now()) < budget_s; ++n)
        pass();
}

double
gcups(u64 cells, i64 kernel_us)
{
    return kernel_us > 0 ? static_cast<double>(cells) /
                               (static_cast<double>(kernel_us) * 1e3)
                         : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

void
kernelLayer(const Workload &w, double budget_s, Gate &gate, Metrics &out)
{
    const std::vector<u32> reqs = sampleRequests(w, kSample);
    const double n = static_cast<double>(reqs.size());
    const auto &registry = kernel::AlignerRegistry::instance();
    const engine::CascadeConfig cfg;
    const double share = budget_s / 4;
    ScratchArena arena;

    // simd::bpmDistanceBatchLanes over lanes of four requests.
    {
        std::vector<double> ns, rate;
        std::vector<simd::BatchLane> lanes(reqs.size());
        repeatPasses(share, [&] {
            for (size_t i = 0; i < reqs.size(); ++i) {
                lanes[i] = simd::BatchLane{};
                lanes[i].pair = &w.pairs[reqs[i]];
            }
            KernelCounts counts;
            KernelContext ctx(CancelToken{}, &counts, &arena);
            arena.reset();
            const auto t0 = Clock::now();
            simd::bpmDistanceBatchLanes(lanes, ctx);
            ns.push_back(secondsBetween(t0, Clock::now()) * 1e9 / n);
            rate.push_back(gcups(counts.cells, ctx.takePhases().kernel_us));
        });
        for (size_t i = 0; i < reqs.size(); ++i) {
            if (!lanes[i].status.ok())
                gate.fail("bpmDistanceBatchLanes: " +
                          lanes[i].status.toString());
            gate.checkDistance(reqs[i], lanes[i].distance,
                               "bpmDistanceBatchLanes");
        }
        out.push_back({"kernel.batch_ns_per_pair", median(ns), "ns"});
        out.push_back({"kernel.batch_gcups", median(rate), "GCUPS"});
    }

    // Registry descriptors, one pair per call, as the cascade calls them.
    i64 setup_us = 0, kernel_us = 0;
    auto runDescriptor = [&](std::string_view name, auto &&params_for,
                             auto &&check, std::vector<double> &ns,
                             std::vector<double> &rate) {
        const kernel::AlignerDescriptor &d =
            registry.require(kernel::dispatchKernel(name));
        std::vector<align::AlignResult> results(reqs.size());
        repeatPasses(share, [&] {
            KernelCounts counts;
            KernelContext ctx(CancelToken{}, &counts, &arena);
            const auto t0 = Clock::now();
            for (size_t i = 0; i < reqs.size(); ++i) {
                arena.reset();
                results[i] = d.run(w.pairs[reqs[i]], params_for(reqs[i]), ctx);
            }
            ns.push_back(secondsBetween(t0, Clock::now()) * 1e9 / n);
            const KernelContext::Phases ph = ctx.takePhases();
            rate.push_back(gcups(counts.cells, ph.kernel_us));
            setup_us += ph.setup_us;
            kernel_us += ph.kernel_us;
        });
        for (size_t i = 0; i < reqs.size(); ++i)
            check(reqs[i], results[i]);
    };

    std::vector<double> exact_ns, filter_ns, tb_ns, tb_rate, unused;
    kernel::KernelParams distance_only;
    distance_only.want_cigar = false;
    runDescriptor(
        "bpm", [&](u32) { return distance_only; },
        [&](u32 p, const align::AlignResult &r) {
            gate.checkDistance(p, r.distance, "bpm");
        },
        exact_ns, unused);

    // The configured filter at the cascade's k: exact within k, a miss
    // beyond it.
    auto filterParams = [&](u32 p) {
        kernel::KernelParams params;
        params.want_cigar = false;
        params.tile = cfg.tile;
        params.k = engine::cascadeFilterK(cfg, w.pairs[p].pattern.size(),
                                          w.pairs[p].text.size());
        return params;
    };
    runDescriptor(
        cfg.filter_kernel, filterParams,
        [&](u32 p, const align::AlignResult &r) {
            if (r.found())
                gate.checkDistance(p, r.distance, cfg.filter_kernel);
            else if (w.expected[p] <= filterParams(p).k)
                gate.fail(std::string(cfg.filter_kernel) + ": pair " +
                          std::to_string(p) + " missed within k");
        },
        filter_ns, unused);

    kernel::KernelParams traceback;
    traceback.want_cigar = true;
    traceback.tile = cfg.tile;
    runDescriptor(
        "gmx-full", [&](u32) { return traceback; },
        [&](u32 p, const align::AlignResult &r) {
            if (!r.has_cigar)
                gate.fail("gmx-full: pair " + std::to_string(p) +
                          " returned no CIGAR");
            else
                gate.check(p, r, "gmx-full");
        },
        tb_ns, tb_rate);

    out.push_back({"kernel.exact_ns_per_pair", median(exact_ns), "ns"});
    out.push_back({"kernel.filter_ns_per_pair", median(filter_ns), "ns"});
    out.push_back({"kernel.traceback_ns_per_pair", median(tb_ns), "ns"});
    out.push_back({"kernel.traceback_gcups", median(tb_rate), "GCUPS"});
    out.push_back({"kernel.setup_ratio",
                   ratio(static_cast<double>(setup_us),
                         static_cast<double>(setup_us + kernel_us)),
                   "ratio"});
}

void
cascadeLayer(const Workload &w, double budget_s, Gate &gate, Metrics &out)
{
    const std::vector<u32> reqs = sampleRequests(w, kSample);
    const double n = static_cast<double>(reqs.size());
    const engine::CascadeConfig cfg;
    ScratchArena arena;
    std::vector<engine::CascadeOutcome> outcomes(reqs.size());
    std::vector<double> us_per_pair, kernel_share;
    repeatPasses(budget_s, [&] {
        const auto t0 = Clock::now();
        for (size_t i = 0; i < reqs.size(); ++i) {
            arena.reset();
            outcomes[i] = engine::cascadeAlign(w.pairs[reqs[i]], cfg,
                                               w.want_cigar[reqs[i]] != 0,
                                               CancelToken{}, arena);
        }
        const double us = secondsBetween(t0, Clock::now()) * 1e6;
        double in_kernels = 0.0;
        for (const auto &o : outcomes)
            for (const auto &a : o.attempts)
                in_kernels += a.micros;
        us_per_pair.push_back(us / n);
        kernel_share.push_back(ratio(in_kernels, us));
    });

    // Work counts are deterministic; take them from the last pass.
    double attempts = 0, cells = 0, filter_attempts = 0, filter_misses = 0;
    double answered_filter = 0, answered_banded = 0, answered_full = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        const engine::CascadeOutcome &o = outcomes[i];
        const auto &p = w.pairs[reqs[i]];
        gate.check(reqs[i], o.result, "cascadeAlign");
        attempts += static_cast<double>(o.attempts.size());
        cells += static_cast<double>(o.counts.cells);
        for (const auto &a : o.attempts) {
            if (std::string_view(engine::tierName(a.tier)) != "filter")
                continue;
            // The filter is exact within k, so it missed iff d > k.
            ++filter_attempts;
            filter_misses += o.result.distance >
                             engine::cascadeFilterK(cfg, p.pattern.size(),
                                                    p.text.size());
        }
        const std::string_view tier = engine::tierName(o.tier);
        answered_filter += tier == "filter";
        answered_banded += tier == "banded";
        answered_full += tier == "full";
    }
    out.push_back({"cascade.us_per_pair", median(us_per_pair), "us"});
    out.push_back({"cascade.attempts_per_pair", attempts / n, "count"});
    out.push_back({"cascade.answered_ratio", ratio(n, attempts), "ratio"});
    out.push_back({"cascade.filter_miss_ratio",
                   ratio(filter_misses, filter_attempts), "ratio"});
    out.push_back({"cascade.cells_per_pair", cells / n, "count"});
    out.push_back({"cascade.kernel_ratio", median(kernel_share), "ratio"});
    out.push_back({"cascade.tier_share.filter", answered_filter / n, "ratio"});
    out.push_back({"cascade.tier_share.banded", answered_banded / n, "ratio"});
    out.push_back({"cascade.tier_share.full", answered_full / n, "ratio"});
}

namespace {

/** p50 of a log2-microsecond engine histogram, interpolated in-bucket. */
double
bucketP50Us(const std::vector<u64> &buckets)
{
    u64 total = 0;
    for (u64 c : buckets)
        total += c;
    const double rank = 0.5 * static_cast<double>(total);
    double below = 0.0;
    for (size_t b = 0; b < buckets.size(); ++b) {
        const double c = static_cast<double>(buckets[b]);
        if (c > 0 && below + c >= rank) {
            const double lo =
                b == 0 ? 0.0 : engine::latencyBucketUpperUs(b - 1);
            const double hi = engine::latencyBucketUpperUs(b);
            return lo + (hi - lo) * ((rank - below) / c);
        }
        below += c;
    }
    return 0.0;
}

/** Queue-wait or service histogram summed over every tier. */
std::vector<u64>
allTiers(const engine::MetricsSnapshot &snap, bool queue_wait)
{
    std::vector<u64> sum;
    for (const auto &t : snap.tiers) {
        const auto &b = queue_wait ? t.queue_wait.buckets : t.service.buckets;
        sum.resize(std::max(sum.size(), b.size()), 0);
        for (size_t i = 0; i < b.size(); ++i)
            sum[i] += b[i];
    }
    return sum;
}

} // namespace

void
engineLayer(const Workload &w, double budget_s, Gate &gate, Metrics &out)
{
    // Tracing cost: alternate legs with the default trace config and with
    // trace_capacity = 0, so drift in machine load hits both sides.
    const Window leg{0.1, budget_s * 0.6 / 6, 1};
    std::vector<double> on, off;
    for (int i = 0; i < 3 && gate.ok(); ++i) {
        for (int j = 0; j < 2; ++j) {
            const bool traced = (i + j) % 2 == 0;
            engine::EngineConfig cfg = engineConfig();
            if (!traced)
                cfg.trace_capacity = 0;
            engine::Engine eng(cfg);
            (traced ? on : off)
                .push_back(engineLoop(eng, w, leg, gate, false)
                               .pairsPerSecond());
        }
    }

    // One probed leg at the default config for the engine's own counters.
    engine::Engine eng(engineConfig());
    const LoopResult r =
        engineLoop(eng, w, Window{0.1, budget_s * 0.4, 1}, gate, true);
    const engine::MetricsSnapshot snap = eng.metrics();
    const double done = static_cast<double>(snap.completed);
    out.push_back({"engine.submit_us_p50", r.call.quantileNs(0.5) / 1e3, "us"});
    out.push_back({"engine.queue_wait_us_p50",
                   bucketP50Us(allTiers(snap, true)), "us"});
    out.push_back({"engine.service_us_p50",
                   bucketP50Us(allTiers(snap, false)), "us"});
    out.push_back({"engine.microbatch_pairs",
                   ratio(static_cast<double>(snap.batched_pairs),
                         static_cast<double>(snap.microbatches)),
                   "count"});
    out.push_back({"engine.lane_occupancy",
                   ratio(static_cast<double>(snap.filter_batched_pairs),
                         static_cast<double>(simd::kBatchLanes *
                                             snap.filter_batches)),
                   "ratio"});
    out.push_back({"engine.lane_packed_ratio",
                   ratio(static_cast<double>(snap.filter_batched_pairs), done),
                   "ratio"});
    out.push_back({"engine.steals_per_kpair",
                   ratio(1e3 * static_cast<double>(snap.pool_steals), done),
                   "1/kpair"});
    out.push_back({"engine.arena_peak_bytes",
                   static_cast<double>(snap.arena_peak_bytes), "B"});
    out.push_back({"engine.trace_overhead_ratio",
                   ratio(median(on), median(off)), "ratio"});
    out.push_back({"engine.snapshot_us", median(r.snapshot_us), "us"});
}

void
routerLayer(const Workload &w, double budget_s, Gate &gate, Metrics &out)
{
    engine::Engine eng(engineConfig());
    serve::ServeMetrics metrics;
    serve::ShardRouter router({&eng}, serve::RouterConfig{}, &metrics);
    u64 requests = 0;
    routerLoop(router, w, Window{0.0, budget_s, 1}, gate, requests);
    const serve::ServeSnapshot snap = metrics.snapshot();
    const double n = static_cast<double>(std::max<u64>(requests, 1));
    out.push_back({"router.cache_hit_ratio",
                   static_cast<double>(snap.cache_hits) / n, "ratio"});
    out.push_back({"router.coalesced_ratio",
                   static_cast<double>(snap.cache_coalesced) / n, "ratio"});
    out.push_back({"router.repeat_ratio", repeatRatio(w, requests), "ratio"});
    out.push_back({"router.evictions_per_kreq",
                   1e3 * static_cast<double>(snap.cache_evictions) / n,
                   "1/kreq"});
    out.push_back({"router.cache_entries",
                   static_cast<double>(router.cacheEntries()), "count"});
}

void
protocolLayer(const Workload &w, double budget_s, Gate &gate, Metrics &out)
{
    const std::vector<u32> reqs = sampleRequests(w, kSample);
    const double n = static_cast<double>(reqs.size());
    const engine::CascadeConfig cfg;
    ScratchArena arena;

    // The frames the wire carries for these requests, answered by the
    // cascade as the server would answer them.
    std::vector<serve::AlignRequestFrame> requests(reqs.size());
    std::vector<serve::AlignResponseFrame> responses(reqs.size());
    double bytes = 0.0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        const u32 p = reqs[i];
        auto &rq = requests[i];
        rq.id = i;
        rq.want_cigar = w.want_cigar[p] != 0;
        rq.pattern = w.pairs[p].pattern.str();
        rq.text = w.pairs[p].text.str();
        arena.reset();
        const auto o = engine::cascadeAlign(w.pairs[p], cfg, rq.want_cigar,
                                            CancelToken{}, arena);
        auto &rs = responses[i];
        rs.id = i;
        rs.distance = o.result.distance;
        rs.has_cigar = o.result.has_cigar;
        if (rs.has_cigar)
            rs.cigar = o.result.cigar.str();
        bytes += static_cast<double>(serve::encodeAlignRequest(rq).size() +
                                     serve::encodeAlignResponse(rs).size());
    }

    // encode -> decodeHeader -> decode, as sender and receiver do it.
    auto roundTrip = [](const auto &frame, auto &decoded, auto encode,
                        auto decode) {
        const std::string wire = encode(frame);
        serve::FrameHeader fh;
        Status s = serve::decodeHeader(wire.data(), wire.size(),
                                       serve::kDefaultMaxFrameBytes, fh);
        if (s.ok())
            s = decode(wire.data() + serve::kHeaderBytes, fh.payload_len,
                       decoded);
        return s;
    };
    std::vector<double> req_ns, resp_ns;
    serve::AlignRequestFrame rq_out;
    serve::AlignResponseFrame rs_out;
    u64 bad = 0;
    repeatPasses(budget_s / 2, [&] {
        const auto t0 = Clock::now();
        for (const auto &rq : requests)
            bad += !roundTrip(rq, rq_out, serve::encodeAlignRequest,
                              serve::decodeAlignRequest)
                        .ok();
        req_ns.push_back(secondsBetween(t0, Clock::now()) * 1e9 / n);
    });
    repeatPasses(budget_s / 2, [&] {
        const auto t0 = Clock::now();
        for (const auto &rs : responses)
            bad += !roundTrip(rs, rs_out, serve::encodeAlignResponse,
                              serve::decodeAlignResponse)
                        .ok();
        resp_ns.push_back(secondsBetween(t0, Clock::now()) * 1e9 / n);
    });
    if (bad > 0)
        gate.fail("protocol: " + std::to_string(bad) + " frames failed to "
                  "decode");

    // Decoded frames must carry what was encoded.
    for (size_t i = 0; i < reqs.size() && gate.ok(); ++i) {
        if (!roundTrip(requests[i], rq_out, serve::encodeAlignRequest,
                       serve::decodeAlignRequest)
                 .ok() ||
            rq_out.pattern != requests[i].pattern ||
            rq_out.text != requests[i].text || rq_out.id != requests[i].id ||
            rq_out.want_cigar != requests[i].want_cigar) {
            gate.fail("protocol: request frame " + std::to_string(i) +
                      " did not round-trip");
            break;
        }
        if (!roundTrip(responses[i], rs_out, serve::encodeAlignResponse,
                       serve::decodeAlignResponse)
                 .ok()) {
            gate.fail("protocol: response frame " + std::to_string(i) +
                      " did not decode");
            break;
        }
        gate.check(reqs[i], serve::toOutcome(rs_out), "protocol");
    }
    out.push_back({"protocol.request_roundtrip_ns", median(req_ns), "ns"});
    out.push_back({"protocol.response_roundtrip_ns", median(resp_ns), "ns"});
    out.push_back({"protocol.bytes_per_pair", bytes / n, "B"});
}

void
wireLayer(const Workload &w, double budget_s, Gate &gate, Metrics &out)
{
    WireStack stack;
    if (Status s = stack.start(); !s.ok()) {
        gate.fail("wire set-up: " + s.toString());
        return;
    }
    const LoopResult r = wireLoop(stack.client(), stack.server(), w,
                                  Window{0.2, budget_s, 1}, gate, true);
    out.push_back({"wire.send_us_p50", r.call.quantileNs(0.5) / 1e3, "us"});
    out.push_back(
        {"wire.recv_wait_us_p50", r.recv_wait.quantileNs(0.5) / 1e3, "us"});
    out.push_back({"wire.serve_snapshot_us", median(r.snapshot_us), "us"});
}

} // namespace perfbench

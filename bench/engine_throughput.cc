/**
 * @file
 * Engine throughput sweep: workers x queue capacity on a mixed-divergence
 * synthetic workload, plus a metrics snapshot of the largest run.
 *
 * This is the software analogue of the paper's multicore scaling study
 * (§7.2, Fig. 12): inter-sequence parallelism over independent pairs, one
 * persistent worker per "core". Rows report sustained throughput
 * (pairs/s and Mbases/s) for the full submit -> cascade -> future
 * pipeline, including queueing and dispatch cost.
 *
 * Runs argument-free. Speedup is relative to the 1-worker row of the same
 * queue capacity; on machines with fewer hardware threads than the row's
 * worker count, speedup saturates at the hardware. With `--serve <port>`
 * (0 = ephemeral) it finishes the sweep, re-runs the workload on a fresh
 * engine, and serves that engine's /metrics, /vars, /trace and /healthz
 * until SIGINT/SIGTERM, so a scraper can be pointed at a benchmark run.
 *
 * `--wire [pairs]` appends a front-door leg: the same workload shape
 * streamed through an AlignServer over localhost TCP via AlignClient,
 * so the row prices the whole wire path (framing, socket hops, router,
 * dedup cache) against the in-process sweep above. The batch runs
 * twice — cold, then again with the result cache warm — and reports
 * both rates plus the cache counters. `--wire-hold` then keeps the
 * align server up until SIGINT/SIGTERM so `examples/align_client` (or
 * any wire client) can be pointed at a live, pre-warmed server.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "common/timer.hh"
#include "engine/engine.hh"
#include "engine/exporter.hh"
#include "engine/server.hh"
#include "kernel/dispatch.hh"
#include "kernel/registry.hh"
#include "kernel/simd/bpm_simd.hh"
#include "sequence/generator.hh"
#include "serve/client.hh"
#include "serve/server.hh"

using namespace gmx;

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

/**
 * Mixed-divergence workload: one third short reads at low error (filter
 * tier), one third moderate divergence (banded tier), one third high
 * divergence (escalates to Full(GMX)).
 */
std::vector<seq::SequencePair>
makeWorkload(size_t pairs, u64 seed)
{
    seq::Generator gen(seed);
    std::vector<seq::SequencePair> out;
    out.reserve(pairs);
    struct Mix
    {
        size_t length;
        double error;
    };
    const Mix mixes[] = {{150, 0.005}, {300, 0.05}, {300, 0.25}};
    for (size_t i = 0; i < pairs; ++i) {
        const Mix &mix = mixes[i % 3];
        out.push_back(gen.pair(mix.length, mix.error));
    }
    return out;
}

size_t
totalBases(const std::vector<seq::SequencePair> &pairs)
{
    size_t bases = 0;
    for (const auto &p : pairs)
        bases += p.pattern.size() + p.text.size();
    return bases;
}

} // namespace

int
main(int argc, char **argv)
{
    int serve_port = -1;
    long wire_pairs = -1;
    bool wire_hold = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
            serve_port = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--wire") == 0) {
            wire_pairs = 2000;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                wire_pairs = std::atol(argv[++i]);
        } else if (std::strcmp(argv[i], "--wire-hold") == 0) {
            wire_hold = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--serve <port>] [--wire [pairs]] "
                         "[--wire-hold]\n",
                         argv[0]);
            return 2;
        }
    }
    if (wire_hold && wire_pairs < 0)
        wire_pairs = 2000;

    const size_t kPairs = 1200;
    const auto workload = makeWorkload(kPairs, 20230711);
    const double mbases =
        static_cast<double>(totalBases(workload)) / 1e6;

    std::printf("Engine throughput sweep: %zu mixed-divergence pairs "
                "(150bp@0.5%%, 300bp@5%%, 300bp@25%%), cascade routing, "
                "distance-only\n"
                "Every request carries a generous 60 s deadline: the "
                "robustness plumbing is enabled but unexercised, so these "
                "rates include its happy-path cost.\n\n",
                kPairs);

    TextTable table({"workers", "queue", "time_s", "pairs/s", "Mbases/s",
                     "speedup", "microbatches", "shed", "downgr",
                     "dl_miss"});

    engine::MetricsSnapshot last_snapshot;
    for (size_t queue_cap : {64u, 1024u}) {
        double base_rate = 0.0;
        for (unsigned workers : {1u, 2u, 4u, 8u}) {
            engine::EngineConfig cfg;
            cfg.workers = workers;
            cfg.queue_capacity = queue_cap;
            cfg.backpressure = engine::Backpressure::Block;
            engine::Engine eng(cfg);

            Timer timer;
            std::vector<std::future<engine::Engine::AlignOutcome>> futures;
            futures.reserve(workload.size());
            for (const auto &pair : workload) {
                engine::SubmitOptions opts;
                opts.want_cigar = false;
                opts.timeout = std::chrono::seconds(60);
                futures.push_back(eng.submit(pair, std::move(opts)));
            }
            for (auto &f : futures)
                f.get();
            const double secs = timer.seconds();

            const double rate = static_cast<double>(kPairs) / secs;
            if (workers == 1)
                base_rate = rate;
            const auto snap = eng.metrics();
            table.addRow({std::to_string(workers),
                          std::to_string(queue_cap), TextTable::num(secs, 3),
                          TextTable::num(rate, 0),
                          TextTable::num(mbases / secs, 2),
                          TextTable::num(rate / base_rate, 2),
                          TextTable::num(static_cast<long long>(
                              snap.microbatches)),
                          TextTable::num(static_cast<long long>(snap.shed)),
                          TextTable::num(static_cast<long long>(
                              snap.downgraded)),
                          TextTable::num(static_cast<long long>(
                              snap.deadline_missed))});
            last_snapshot = snap;
        }
    }
    table.print();

    // One overload point: small shedding queue plus a memory budget tight
    // enough that every Full(GMX) traceback downgrades to Hirschberg, so
    // the robustness columns are exercised, not just reported. 2 kbp
    // traceback wants ~131 KB of tile edges; the 96 KB budget admits two
    // concurrent Hirschberg footprints (~36 KB) instead.
    {
        seq::Generator gen(77);
        std::vector<seq::SequencePair> heavy;
        for (int i = 0; i < 200; ++i)
            heavy.push_back(gen.pair(2000, 0.05));
        engine::EngineConfig cfg;
        cfg.workers = 2;
        cfg.queue_capacity = 16;
        cfg.backpressure = engine::Backpressure::ShedOldest;
        cfg.microbatch_max = 1;
        cfg.memory_budget_bytes = 96 * 1024;
        engine::Engine eng(cfg);
        std::vector<std::future<engine::Engine::AlignOutcome>> futures;
        futures.reserve(heavy.size());
        for (const auto &pair : heavy)
            futures.push_back(eng.submit(pair, /*want_cigar=*/true));
        size_t ok = 0, shed = 0, other = 0;
        for (auto &f : futures) {
            const auto res = f.get();
            if (res.ok())
                ++ok;
            else if (res.code() == StatusCode::Overloaded)
                ++shed;
            else
                ++other;
        }
        const auto snap = eng.metrics();
        std::printf("\nOverload point (200 x 2 kbp traceback, 2 workers, "
                    "queue 16, ShedOldest, 96 KB budget):\n"
                    "  served=%zu shed=%zu other=%zu downgraded=%llu "
                    "peak_reserved=%llu B (budget %llu B)\n",
                    ok, shed, other,
                    static_cast<unsigned long long>(snap.downgraded),
                    static_cast<unsigned long long>(snap.mem_reserved_peak),
                    static_cast<unsigned long long>(snap.mem_budget_bytes));
    }

    // Allocator traffic on the short-pair hot path. "fresh arena" is the
    // pre-refactor behaviour in arena terms: every request starts cold
    // and its kernels hit the allocator for rows/masks/tile buffers.
    // "reused arena" is what engine workers do now: one thread-local
    // arena, reset (not freed) between requests, so a warmed worker
    // serves the short-pair mix with zero heap allocations per request.
    {
        seq::Generator gen(4242);
        std::vector<seq::SequencePair> shorts;
        for (int i = 0; i < 2000; ++i)
            shorts.push_back(gen.pair(150, 0.005));
        const engine::CascadeConfig ccfg;

        struct HotPathRun
        {
            u64 block_allocs = 0;
            u64 cells = 0;
            double kernel_us = 0;
            double secs = 0;
        };
        auto run = [&](bool reuse) {
            HotPathRun r;
            ScratchArena persistent;
            Timer t;
            for (const auto &pair : shorts) {
                ScratchArena fresh;
                ScratchArena &arena = reuse ? persistent : fresh;
                if (reuse)
                    persistent.reset();
                const auto out = engine::cascadeAlign(
                    pair, ccfg, /*want_cigar=*/false, CancelToken{}, arena);
                r.cells += out.counts.cells;
                for (const auto &a : out.attempts)
                    r.kernel_us += a.kernel_us;
                if (!reuse)
                    r.block_allocs += fresh.blockAllocs();
            }
            r.secs = t.seconds();
            if (reuse)
                r.block_allocs = persistent.blockAllocs();
            return r;
        };
        // Per-attempt kernel time on 150 bp pairs sits near timer
        // granularity, so single passes are noise-dominated: warm up,
        // then alternate modes and keep each mode's fastest pass.
        run(false);
        run(true);
        auto better = [](const HotPathRun &a, const HotPathRun &b) {
            return a.secs > 0 && a.secs < b.secs ? a : b;
        };
        HotPathRun fresh, reused;
        fresh.secs = reused.secs = 1e30;
        for (int rep = 0; rep < 5; ++rep) {
            fresh = better(run(false), fresh);
            reused = better(run(true), reused);
        }
        const double fresh_gcups =
            bench::kernelGcups(fresh.cells, fresh.kernel_us);
        const double reused_gcups =
            bench::kernelGcups(reused.cells, reused.kernel_us);
        std::printf(
            "\nShort-pair hot path (%zu x 150bp @ 0.5%%, cascade "
            "distance-only, 1 thread):\n"
            "  fresh arena per request:  %.2f allocs/request, %.3f GCUPS, "
            "%.0f pairs/s\n"
            "  reused per-worker arena:  %.2f allocs/request, %.3f GCUPS, "
            "%.0f pairs/s\n"
            "  allocator traffic cut %.0fx; throughput %+.1f%%; "
            "GCUPS delta %+.1f%% (kernel-phase only — allocation cost "
            "lands in setup)\n",
            shorts.size(),
            static_cast<double>(fresh.block_allocs) / shorts.size(),
            fresh_gcups, shorts.size() / fresh.secs,
            static_cast<double>(reused.block_allocs) / shorts.size(),
            reused_gcups, shorts.size() / reused.secs,
            static_cast<double>(fresh.block_allocs) /
                static_cast<double>(std::max<u64>(reused.block_allocs, 1)),
            100.0 * (fresh.secs / reused.secs - 1.0),
            fresh_gcups > 0.0
                ? 100.0 * (reused_gcups - fresh_gcups) / fresh_gcups
                : 0.0);
    }

    // Scalar bpm vs the inter-pair batcher, priced on the kernel phase
    // alone so the comparison isolates the DP inner loop from setup and
    // dispatch. The scalar leg runs the registry descriptor directly (no
    // engine) on the short-read shape the cascade's filter tier sees most.
    {
        seq::Generator gen(9090);
        std::vector<seq::SequencePair> pairs;
        for (int i = 0; i < 2000; ++i)
            pairs.push_back(gen.pair(150, 0.02));
        const auto &reg = kernel::AlignerRegistry::instance();
        // One context per rep: phase times accumulate in nanoseconds
        // across the whole pass and convert to us once, so per-pair
        // microsecond truncation can't erase 1 us kernels.
        auto measure_once = [](const kernel::AlignerDescriptor &d,
                               const std::vector<seq::SequencePair> &ps) {
            kernel::KernelParams params;
            params.want_cigar = false;
            KernelCounts counts;
            ScratchArena arena;
            KernelContext ctx(CancelToken{}, &counts, &arena);
            for (const auto &p : ps) {
                arena.reset();
                (void)d.run(p, params, ctx);
            }
            const double kernel_us =
                static_cast<double>(ctx.takePhases().kernel_us);
            return bench::kernelGcups(counts.cells, kernel_us);
        };

        std::printf("\nScalar bpm vs inter-pair batch, kernel-phase GCUPS "
                    "(1 thread, best of interleaved reps; %s backend, "
                    "lane packing %s):\n",
                    simd::builtWithAvx2() ? "AVX2" : "portable-SIMD",
                    kernel::simdDispatchEnabled() ? "on" : "off");
        // One batcher pass over a pair set.
        auto batch_gcups = [](const std::vector<seq::SequencePair> &ps) {
            std::vector<simd::BatchLane> lanes(ps.size());
            for (size_t i = 0; i < ps.size(); ++i)
                lanes[i].pair = &ps[i];
            KernelCounts counts;
            ScratchArena arena;
            KernelContext ctx(CancelToken{}, &counts, &arena);
            simd::bpmDistanceBatchLanes(lanes, ctx);
            return bench::kernelGcups(
                counts.cells,
                static_cast<double>(ctx.takePhases().kernel_us));
        };

        // Inter-pair batching: four <=64bp patterns packed one per lane.
        seq::Generator sgen(777);
        std::vector<seq::SequencePair> tiny;
        for (int i = 0; i < 4000; ++i)
            tiny.push_back(sgen.pair(60, 0.03));
        const kernel::AlignerDescriptor &bpm = reg.require("bpm");
        double scalar_best = 0.0, batch_best = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            scalar_best = std::max(scalar_best, measure_once(bpm, tiny));
            batch_best = std::max(batch_best, batch_gcups(tiny));
        }
        std::printf("  inter-pair batch (4000 x 60bp, 4 lanes/vector): "
                    "scalar %.3f GCUPS, batched %.3f GCUPS (%.2fx)\n",
                    scalar_best, batch_best,
                    scalar_best > 0 ? batch_best / scalar_best : 0.0);

        // The 150 bp short-read screen. Batching four pairs per vector
        // keeps every op per-lane, so the column's serial chain is as
        // short as the scalar kernel's and the vector buys four pairs per
        // step: the formulation that beats the scalar kernel on
        // short-read distance screens.
        double s150 = 0.0, b150 = 0.0;
        for (int rep = 0; rep < 5; ++rep) {
            s150 = std::max(s150, measure_once(bpm, pairs));
            b150 = std::max(b150, batch_gcups(pairs));
        }
        std::printf("  inter-pair batch (2000 x 150bp, 3 blocks/lane): "
                    "scalar %.3f GCUPS, batched %.3f GCUPS (%.2fx)\n",
                    s150, b150, s150 > 0 ? b150 / s150 : 0.0);
    }

    // Engine-level lane packing: the same 150 bp distance-only screen
    // through the full submit -> fuse -> lane-pack -> cascade pipeline,
    // batching armed (dispatch decides) vs pinned to the per-request
    // scalar cascade. This is the acceptance leg for the engine
    // integration: the kernel-level batch win above must survive
    // queueing, fusion, and dispatch overhead end to end.
    {
        seq::Generator egen(13579);
        std::vector<seq::SequencePair> screen;
        for (int i = 0; i < 6000; ++i)
            screen.push_back(egen.pair(150, 0.005));
        engine::MetricsSnapshot batched_snap;
        auto engine_rate = [&](bool force_scalar,
                               engine::MetricsSnapshot *snap) {
            kernel::setForceScalarForTest(force_scalar ? 1 : -1);
            engine::EngineConfig cfg;
            cfg.workers = 2;
            cfg.microbatch_max = 16;
            engine::Engine eng(cfg);
            Timer t;
            std::vector<std::future<engine::Engine::AlignOutcome>> futs;
            futs.reserve(screen.size());
            for (const auto &p : screen) {
                engine::SubmitOptions o;
                o.want_cigar = false;
                futs.push_back(eng.submit(p, std::move(o)));
            }
            for (auto &f : futs)
                f.get();
            const double secs = t.seconds();
            if (snap)
                *snap = eng.metrics();
            return static_cast<double>(screen.size()) / secs;
        };
        double scalar_rate = 0.0, batched_rate = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            scalar_rate =
                std::max(scalar_rate, engine_rate(true, nullptr));
            batched_rate =
                std::max(batched_rate, engine_rate(false, &batched_snap));
        }
        kernel::setForceScalarForTest(-1);
        std::printf(
            "  engine end-to-end (6000 x 150bp, 2 workers, distance-only): "
            "forced-scalar %.0f pairs/s, batched %.0f pairs/s (%.2fx)\n"
            "    packed groups=%llu pairs_packed=%llu occupancy(1/2/3/4)="
            "%llu/%llu/%llu/%llu filter-tier %.3f GCUPS\n",
            scalar_rate, batched_rate,
            scalar_rate > 0 ? batched_rate / scalar_rate : 0.0,
            static_cast<unsigned long long>(batched_snap.filter_batches),
            static_cast<unsigned long long>(
                batched_snap.filter_batched_pairs),
            static_cast<unsigned long long>(
                batched_snap.filter_batch_lanes[0]),
            static_cast<unsigned long long>(
                batched_snap.filter_batch_lanes[1]),
            static_cast<unsigned long long>(
                batched_snap.filter_batch_lanes[2]),
            static_cast<unsigned long long>(
                batched_snap.filter_batch_lanes[3]),
            batched_snap
                .tiers[static_cast<unsigned>(engine::Tier::Filter)]
                .gcups);
    }

    std::printf("\nMetrics snapshot (last sweep run: 8 workers, queue "
                "1024):\n%s\n",
                last_snapshot.toJson().c_str());

    std::printf("\nTier hits: filter=%llu banded=%llu full=%llu "
                "downgraded=%llu\n",
                static_cast<unsigned long long>(last_snapshot.tier_hits[0]),
                static_cast<unsigned long long>(last_snapshot.tier_hits[1]),
                static_cast<unsigned long long>(last_snapshot.tier_hits[2]),
                static_cast<unsigned long long>(last_snapshot.tier_hits[3]));

    std::printf("\nPer-tier GCUPS (kernel cells / kernel wall time):\n");
    for (unsigned t = 0; t < engine::kTierCount; ++t) {
        const auto &ts = last_snapshot.tiers[t];
        if (ts.attempts == 0)
            continue;
        std::printf("  %-10s attempts=%-6llu cells=%-12llu gcups=%.3f "
                    "qwait_p99=%.0fus service_p99=%.0fus\n",
                    engine::tierName(static_cast<engine::Tier>(t)),
                    static_cast<unsigned long long>(ts.attempts),
                    static_cast<unsigned long long>(ts.cells), ts.gcups,
                    ts.queue_wait.p99_us, ts.service.p99_us);
    }

    // The same snapshot in the format a Prometheus scraper would ingest.
    std::printf("\n--- OpenMetrics scrape (last sweep run) ---\n%s",
                engine::renderOpenMetrics(last_snapshot).c_str());

    // Wire mode: the same workload shape through the alignment front
    // door — AlignServer + AlignClient over localhost TCP — priced
    // cold and then with the dedup cache warm.
    if (wire_pairs > 0) {
        const auto wire_workload =
            makeWorkload(static_cast<size_t>(wire_pairs), 20230711);
        const double wire_mbases =
            static_cast<double>(totalBases(wire_workload)) / 1e6;

        std::vector<std::unique_ptr<engine::Engine>> engines;
        for (int i = 0; i < 2; ++i) {
            engine::EngineConfig cfg;
            cfg.workers = 4;
            engines.push_back(std::make_unique<engine::Engine>(cfg));
        }
        serve::AlignServerConfig scfg;
        scfg.port = 0;
        scfg.pending_cap = 4096;
        serve::AlignServer server({engines[0].get(), engines[1].get()},
                                  scfg);
        if (Status s = server.start(); !s.ok()) {
            std::fprintf(stderr, "wire server failed: %s\n",
                         s.toString().c_str());
            return 1;
        }

        serve::ClientConfig ccfg;
        ccfg.port = server.port();
        ccfg.client_id = "bench";
        ccfg.window = 128;
        serve::AlignClient client(ccfg);
        if (Status s = client.connect(); !s.ok()) {
            std::fprintf(stderr, "wire connect failed: %s\n",
                         s.toString().c_str());
            return 1;
        }

        double cold_s = 0, warm_s = 0;
        for (int pass = 0; pass < 2; ++pass) {
            Timer t;
            const auto results =
                client.alignBatch(wire_workload, /*want_cigar=*/false);
            const double secs = t.seconds();
            size_t ok = 0;
            for (const auto &r : results)
                ok += r.ok() ? 1 : 0;
            if (ok != results.size()) {
                std::fprintf(stderr, "wire pass %d: %zu/%zu failed\n",
                             pass, results.size() - ok, results.size());
                return 1;
            }
            (pass == 0 ? cold_s : warm_s) = secs;
        }

        const auto snap = server.serveSnapshot();
        std::printf(
            "\nWire path (%ld pairs over localhost TCP, 2 engines x 4 "
            "workers, distance-only):\n"
            "  cold: %8.0f pairs/s  %6.2f Mbases/s\n"
            "  warm: %8.0f pairs/s  %6.2f Mbases/s  (dedup cache)\n"
            "  cache: hits=%llu coalesced=%llu misses=%llu "
            "hit_rate=%.2f  bytes_in=%llu bytes_out=%llu\n",
            wire_pairs, wire_pairs / cold_s, wire_mbases / cold_s,
            wire_pairs / warm_s, wire_mbases / warm_s,
            static_cast<unsigned long long>(snap.cache_hits),
            static_cast<unsigned long long>(snap.cache_coalesced),
            static_cast<unsigned long long>(snap.cache_misses),
            snap.cacheHitRate(),
            static_cast<unsigned long long>(snap.bytes_in),
            static_cast<unsigned long long>(snap.bytes_out));

        if (wire_hold) {
            std::signal(SIGINT, onSignal);
            std::signal(SIGTERM, onSignal);
            std::printf("align server holding on 127.0.0.1:%u — try "
                        "examples/align_client --port %u; "
                        "SIGINT/SIGTERM to stop\n",
                        static_cast<unsigned>(server.port()),
                        static_cast<unsigned>(server.port()));
            std::fflush(stdout);
            while (!g_stop.load())
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        server.stop();
    }

    // Scrape mode: replay the workload on a fresh engine and serve its
    // live observability surfaces until a signal arrives.
    if (serve_port >= 0) {
        engine::EngineConfig cfg;
        cfg.workers = 4;
        cfg.slow_request_threshold = std::chrono::milliseconds(5);
        engine::Engine eng(cfg);
        for (const auto &pair : workload) {
            engine::SubmitOptions opts;
            opts.want_cigar = false;
            (void)eng.submit(pair, std::move(opts));
        }
        eng.drain();
        engine::ServerConfig scfg;
        scfg.port = static_cast<u16>(serve_port);
        engine::MetricsServer server(eng, scfg);
        if (Status s = server.start(); !s.ok()) {
            std::fprintf(stderr, "serve failed: %s\n",
                         s.toString().c_str());
            return 1;
        }
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        std::printf("serving on http://127.0.0.1:%u "
                    "(/metrics /vars /trace /healthz); "
                    "SIGINT/SIGTERM to stop\n",
                    static_cast<unsigned>(server.port()));
        std::fflush(stdout);
        while (!g_stop.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        server.stop();
    }
    return 0;
}

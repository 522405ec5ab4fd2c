/**
 * @file
 * Throughput demo: drive the persistent alignment engine the way a
 * service front-end would — stream a mixed-divergence batch through the
 * adaptive cascade, then read the metrics snapshot.
 *
 * Demonstrates:
 *   - streaming submission with futures (no fork-join per batch),
 *   - cascade tier routing (exact BPM distance, then one Banded(GMX) or
 *     Full(GMX) traceback),
 *   - per-tier observability: kernel GCUPS and the queue-wait vs
 *     service-time latency split,
 *   - the JSON metrics snapshot and the OpenMetrics text block a
 *     monitoring scraper would poll.
 *
 * Doubles as an integration test: exits nonzero when any cascade result
 * disagrees with the Full(DP) ground truth or when the tier accounting
 * does not add up.
 *
 * With `--serve <port>` (0 = ephemeral) the demo keeps the engine alive
 * after the workload and serves /metrics, /vars, /trace and /healthz
 * over HTTP until SIGINT/SIGTERM — the smallest possible "monitored
 * alignment service":
 *
 *   ./throughput_demo --serve 9100 &
 *   curl localhost:9100/metrics
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "align/nw.hh"
#include "engine/engine.hh"
#include "engine/exporter.hh"
#include "engine/server.hh"
#include "sequence/generator.hh"

using namespace gmx;

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    int serve_port = -1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
            serve_port = std::atoi(argv[++i]);
        } else {
            std::fprintf(stderr, "usage: %s [--serve <port>]\n", argv[0]);
            return 2;
        }
    }
    // A service-shaped engine: persistent workers, bounded queue,
    // blocking backpressure, cascade routing.
    engine::EngineConfig cfg;
    cfg.workers = 4;
    cfg.queue_capacity = 256;
    cfg.backpressure = engine::Backpressure::Block;
    // Anything beyond 5 ms is a slow request: populates the /trace
    // slow-request exemplar lanes when serving.
    cfg.slow_request_threshold = std::chrono::milliseconds(5);
    engine::Engine eng(cfg);

    // Mixed traffic: mostly near-identical short reads, some moderately
    // divergent pairs, a few highly divergent ones.
    seq::Generator gen(4096);
    std::vector<seq::SequencePair> traffic;
    for (int i = 0; i < 120; ++i) {
        const double err = (i % 10 < 6) ? 0.01 : (i % 10 < 9) ? 0.08 : 0.30;
        traffic.push_back(gen.pair(200, err));
    }

    // Stream everything in (distance-only: the distance tier answers),
    // then collect through the futures. Futures always deliver a
    // Result<AlignResult>: a value or a typed Status, never an exception.
    std::vector<std::future<engine::Engine::AlignOutcome>> futures;
    for (const auto &pair : traffic)
        futures.push_back(eng.submit(pair, /*want_cigar=*/false));

    int mismatches = 0;
    for (size_t i = 0; i < traffic.size(); ++i) {
        const auto res = futures[i].get();
        if (!res.ok()) {
            std::fprintf(stderr, "pair %zu: %s\n", i,
                         res.status().toString().c_str());
            ++mismatches;
            continue;
        }
        const i64 got = res->distance;
        const i64 want =
            align::nwDistance(traffic[i].pattern, traffic[i].text);
        if (got != want) {
            std::fprintf(stderr, "pair %zu: cascade %lld != nw %lld\n", i,
                         static_cast<long long>(got),
                         static_cast<long long>(want));
            ++mismatches;
        }
    }

    const auto snap = eng.metrics();
    std::printf("aligned %llu pairs on %llu workers\n",
                static_cast<unsigned long long>(snap.completed),
                static_cast<unsigned long long>(snap.pool_workers));
    std::printf("tier hits: filter=%llu banded=%llu full=%llu\n",
                static_cast<unsigned long long>(snap.tier_hits[0]),
                static_cast<unsigned long long>(snap.tier_hits[1]),
                static_cast<unsigned long long>(snap.tier_hits[2]));
    std::printf("latency: mean %.1fus p50<=%.0fus p99<=%.0fus\n",
                snap.latency.mean_us, snap.latency.p50_us,
                snap.latency.p99_us);

    // Per-tier work and the split latency story: how long requests sat in
    // the queue vs how long the kernels ran, and what the kernels did.
    std::printf("%-10s %9s %12s %8s %14s %14s\n", "tier", "attempts",
                "cells", "GCUPS", "queue-wait us", "service us");
    for (unsigned t = 0; t < engine::kTierCount; ++t) {
        const auto &ts = snap.tiers[t];
        if (ts.attempts == 0 && ts.queue_wait.count == 0)
            continue;
        std::printf("%-10s %9llu %12llu %8.3f %7.1f (p99) %7.1f (p99)\n",
                    engine::tierName(static_cast<engine::Tier>(t)),
                    static_cast<unsigned long long>(ts.attempts),
                    static_cast<unsigned long long>(ts.cells), ts.gcups,
                    ts.queue_wait.p99_us, ts.service.p99_us);
    }

    std::printf("metrics: %s\n", snap.toJson().c_str());
    std::printf("\n--- OpenMetrics scrape ---\n%s",
                engine::renderOpenMetrics(snap).c_str());

    // Acceptance: exact results, all completions accounted to a tier.
    u64 tier_total = 0;
    for (u64 hits : snap.tier_hits)
        tier_total += hits;
    const bool ok = mismatches == 0 &&
                    snap.completed == traffic.size() &&
                    tier_total == traffic.size();
    if (!ok) {
        std::fprintf(stderr, "FAILED: mismatches=%d completed=%llu "
                             "tier_total=%llu\n",
                     mismatches,
                     static_cast<unsigned long long>(snap.completed),
                     static_cast<unsigned long long>(tier_total));
        return 1;
    }
    std::printf("OK\n");

    // Scrape mode: keep the engine alive and serve its observability
    // surfaces until a signal arrives.
    if (serve_port >= 0) {
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
        std::printf("scrape server stopped after %llu responses\n",
                    static_cast<unsigned long long>(server.served()));
    }
    return 0;
}

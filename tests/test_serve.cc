/**
 * @file
 * AlignServer tests over real sockets: protocol round-trips, TCP and
 * unix-socket batch correctness against nwAlign, the dedup cache
 * (hits, coalescing, fewer engine submissions than wire requests),
 * per-client quotas, priority shed ordering under a deterministically
 * blocked engine, graceful shutdown with a batch in flight, the
 * listener lifecycle (restart, port clash, refusing a connection still
 * queued at stop()), and protocol-error handling. Runs under TSan in
 * scripts/tier1.sh.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "align/nw.hh"
#include "common/net.hh"
#include "engine/engine.hh"
#include "sequence/generator.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/quota.hh"
#include "serve/router.hh"
#include "serve/server.hh"
#include "test_util.hh"

namespace gmx::serve {
namespace {

/** Poll @p cond up to ~2s; true when it became true. */
bool
eventually(const std::function<bool()> &cond)
{
    for (int i = 0; i < 400; ++i) {
        if (cond())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return cond();
}

/** Engines + started server with test-friendly defaults. */
struct Harness
{
    explicit Harness(AlignServerConfig scfg = {}, unsigned num_engines = 1,
                     engine::EngineConfig ecfg = {})
    {
        if (ecfg.workers == 0)
            ecfg.workers = 2;
        for (unsigned i = 0; i < num_engines; ++i)
            engines.push_back(std::make_unique<engine::Engine>(ecfg));
        std::vector<engine::Engine *> raw;
        for (auto &e : engines)
            raw.push_back(e.get());
        scfg.port = 0; // always ephemeral in tests
        server = std::make_unique<AlignServer>(raw, scfg);
        const Status s = server->start();
        EXPECT_TRUE(s.ok()) << s.toString();
    }

    ClientConfig clientConfig(const std::string &id = "test",
                              Priority prio = Priority::Normal) const
    {
        ClientConfig c;
        c.port = server->port();
        c.client_id = id;
        c.priority = prio;
        return c;
    }

    std::vector<std::unique_ptr<engine::Engine>> engines;
    std::unique_ptr<AlignServer> server;
};

// -------------------------------------------------------------------
// Protocol round-trips.
// -------------------------------------------------------------------

TEST(ServeProtocol, EveryFrameTypeRoundTrips)
{
    {
        HelloFrame in{Priority::High, kSupportedFeatures, "mapper-7"};
        const std::string wire = encodeHello(in);
        FrameHeader h;
        ASSERT_TRUE(decodeHeader(wire.data(), wire.size(),
                                 kDefaultMaxFrameBytes, h)
                        .ok());
        EXPECT_EQ(h.type, FrameType::Hello);
        HelloFrame out;
        ASSERT_TRUE(decodeHello(wire.data() + kHeaderBytes, h.payload_len,
                                out)
                        .ok());
        EXPECT_EQ(out.priority, Priority::High);
        EXPECT_EQ(out.features, kSupportedFeatures);
        EXPECT_EQ(out.client_id, "mapper-7");
    }
    {
        HelloAckFrame in{kVersion, kFeatureDeadline, 65536};
        const std::string wire = encodeHelloAck(in);
        HelloAckFrame out;
        ASSERT_TRUE(decodeHelloAck(wire.data() + kHeaderBytes,
                                   wire.size() - kHeaderBytes, out)
                        .ok());
        EXPECT_EQ(out.features, kFeatureDeadline);
        EXPECT_EQ(out.max_frame_bytes, 65536u);
    }
    {
        AlignRequestFrame in;
        in.id = 42;
        in.max_edits = 7;
        in.want_cigar = true;
        in.pattern = "ACGTACGT";
        in.text = "ACGGACGT";
        const std::string wire = encodeAlignRequest(in);
        AlignRequestFrame out;
        ASSERT_TRUE(decodeAlignRequest(wire.data() + kHeaderBytes,
                                       wire.size() - kHeaderBytes, out)
                        .ok());
        EXPECT_EQ(out.id, 42u);
        EXPECT_EQ(out.max_edits, 7u);
        EXPECT_TRUE(out.want_cigar);
        EXPECT_EQ(out.pattern, in.pattern);
        EXPECT_EQ(out.text, in.text);
    }
    {
        AlignResponseFrame in;
        in.id = 42;
        in.code = StatusCode::Ok;
        in.has_cigar = true;
        in.cache_hit = true;
        in.distance = 1;
        in.cigar = "MMMXMMMM";
        const std::string wire = encodeAlignResponse(in);
        AlignResponseFrame out;
        ASSERT_TRUE(decodeAlignResponse(wire.data() + kHeaderBytes,
                                        wire.size() - kHeaderBytes, out)
                        .ok());
        EXPECT_EQ(out.id, 42u);
        EXPECT_EQ(out.code, StatusCode::Ok);
        EXPECT_TRUE(out.has_cigar);
        EXPECT_TRUE(out.cache_hit);
        EXPECT_EQ(out.distance, 1);
        EXPECT_EQ(out.cigar, "MMMXMMMM");
    }
    {
        // The no-alignment sentinel survives the -1 wire encoding.
        AlignResponseFrame in;
        in.distance = align::kNoAlignment;
        const std::string wire = encodeAlignResponse(in);
        AlignResponseFrame out;
        ASSERT_TRUE(decodeAlignResponse(wire.data() + kHeaderBytes,
                                        wire.size() - kHeaderBytes, out)
                        .ok());
        EXPECT_EQ(out.distance, align::kNoAlignment);
    }
    {
        ErrorFrame in{StatusCode::Overloaded, "go away"};
        const std::string wire = encodeError(in);
        ErrorFrame out;
        ASSERT_TRUE(decodeError(wire.data() + kHeaderBytes,
                                wire.size() - kHeaderBytes, out)
                        .ok());
        EXPECT_EQ(out.code, StatusCode::Overloaded);
        EXPECT_EQ(out.message, "go away");
    }
    EXPECT_TRUE(decodeEmpty(FrameType::Bye,
                            encodeBye().size() - kHeaderBytes)
                    .ok());
    EXPECT_FALSE(decodeEmpty(FrameType::ByeAck, 1).ok());
}

TEST(ServeProtocol, HeaderRejectsGarbage)
{
    const std::string good = encodeBye();
    FrameHeader h;

    std::string bad = good;
    bad[0] ^= 0x5a; // magic
    EXPECT_FALSE(
        decodeHeader(bad.data(), bad.size(), kDefaultMaxFrameBytes, h).ok());

    bad = good;
    bad[4] = 9; // version
    EXPECT_FALSE(
        decodeHeader(bad.data(), bad.size(), kDefaultMaxFrameBytes, h).ok());

    bad = good;
    bad[5] = 99; // frame type
    EXPECT_FALSE(
        decodeHeader(bad.data(), bad.size(), kDefaultMaxFrameBytes, h).ok());

    bad = good;
    bad[6] = 1; // reserved bits
    EXPECT_FALSE(
        decodeHeader(bad.data(), bad.size(), kDefaultMaxFrameBytes, h).ok());

    // Payload over the negotiated cap.
    bad = good;
    bad[8] = static_cast<char>(0xff);
    bad[9] = static_cast<char>(0xff);
    EXPECT_FALSE(decodeHeader(bad.data(), bad.size(), 1024, h).ok());

    EXPECT_FALSE(decodeHeader(good.data(), kHeaderBytes - 1,
                              kDefaultMaxFrameBytes, h)
                     .ok());
}

// -------------------------------------------------------------------
// End-to-end correctness.
// -------------------------------------------------------------------

TEST(AlignServer, TcpBatchMatchesNwAlign)
{
    Harness h;
    AlignClient client(h.clientConfig("mapper"));
    ASSERT_TRUE(client.connect().ok());
    EXPECT_EQ(client.maxFrameBytes(), kDefaultMaxFrameBytes);

    seq::Generator gen(4242);
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 24; ++i)
        pairs.push_back(gen.pair(120 + i, i % 2 ? 0.02 : 0.15));

    const auto results = client.alignBatch(pairs, true);
    ASSERT_EQ(results.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
        ASSERT_TRUE(results[i].ok()) << results[i].status().toString();
        const align::AlignResult ref =
            align::nwAlign(pairs[i].pattern, pairs[i].text);
        EXPECT_EQ(results[i]->distance, ref.distance) << "pair " << i;
        ASSERT_TRUE(results[i]->has_cigar);
        // The cigar must be a genuine traceback for THIS pair: right
        // lengths, and its op count equals the reported distance.
        EXPECT_EQ(results[i]->cigar.patternLength(),
                  pairs[i].pattern.size());
        EXPECT_EQ(results[i]->cigar.textLength(), pairs[i].text.size());
        EXPECT_EQ(static_cast<i64>(results[i]->cigar.editDistance()),
                  results[i]->distance);
    }
    EXPECT_TRUE(client.bye().ok());

    const ServeSnapshot snap = h.server->serveSnapshot();
    EXPECT_EQ(snap.requests, pairs.size());
    EXPECT_EQ(snap.responses_ok, pairs.size());
    EXPECT_EQ(snap.responses_failed, 0u);
    EXPECT_EQ(snap.pending, 0u);
    ASSERT_EQ(snap.clients.size(), 1u);
    EXPECT_EQ(snap.clients[0].id, "mapper");
    EXPECT_EQ(snap.clients[0].completed, pairs.size());
}

TEST(AlignServer, UnixSocketBatchMatchesNwAlign)
{
    AlignServerConfig scfg;
    scfg.unix_path = "/tmp/gmx_serve_test_" + std::to_string(::getpid()) +
                     ".sock";
    Harness h(scfg);

    ClientConfig ccfg;
    ccfg.unix_path = scfg.unix_path;
    ccfg.client_id = "unix-mapper";
    AlignClient client(ccfg);
    ASSERT_TRUE(client.connect().ok());

    seq::Generator gen(515);
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 12; ++i)
        pairs.push_back(gen.pair(200, 0.08));

    const auto results = client.alignBatch(pairs, false);
    ASSERT_EQ(results.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
        ASSERT_TRUE(results[i].ok()) << results[i].status().toString();
        EXPECT_EQ(results[i]->distance,
                  align::nwAlign(pairs[i].pattern, pairs[i].text).distance);
        EXPECT_FALSE(results[i]->has_cigar);
    }
    EXPECT_TRUE(client.bye().ok());
    h.server->stop();
    // stop() unlinked the socket path.
    EXPECT_NE(::access(scfg.unix_path.c_str(), F_OK), 0);
}

TEST(AlignServer, MaxEditsIsAPostFilter)
{
    Harness h;
    AlignClient client(h.clientConfig());
    ASSERT_TRUE(client.connect().ok());

    seq::Generator gen(99);
    const seq::SequencePair pair = gen.pair(300, 0.2);
    const i64 truth = align::nwAlign(pair.pattern, pair.text).distance;
    ASSERT_GT(truth, 1);

    auto strict = client.alignBatch({pair}, true, 1);
    ASSERT_TRUE(strict[0].ok());
    EXPECT_FALSE(strict[0]->found());
    EXPECT_FALSE(strict[0]->has_cigar);

    auto loose =
        client.alignBatch({pair}, true, static_cast<u32>(truth));
    ASSERT_TRUE(loose[0].ok());
    EXPECT_EQ(loose[0]->distance, truth);
    EXPECT_TRUE(loose[0]->has_cigar);
}

// -------------------------------------------------------------------
// Dedup cache.
// -------------------------------------------------------------------

TEST(AlignServer, HotKeyBurstHitsTheCache)
{
    Harness h;
    AlignClient client(h.clientConfig("hot"));
    ASSERT_TRUE(client.connect().ok());

    seq::Generator gen(7);
    const seq::SequencePair hot = gen.pair(400, 0.1);
    constexpr size_t kRepeats = 16;
    std::vector<seq::SequencePair> pairs(kRepeats, hot);

    const auto results = client.alignBatch(pairs, true);
    const i64 truth = align::nwAlign(hot.pattern, hot.text).distance;
    for (const auto &r : results) {
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r->distance, truth);
    }

    const ServeSnapshot snap = h.server->serveSnapshot();
    EXPECT_EQ(snap.requests, kRepeats);
    EXPECT_GT(snap.cache_hits + snap.cache_coalesced, 0u);
    EXPECT_GE(snap.cache_entries, 1u);
    // The point of the cache: far fewer engine submissions than wire
    // requests (duplicates were answered without kernel work).
    EXPECT_LT(h.engines[0]->metrics().submitted, kRepeats);
    EXPECT_GT(client.cacheHits(), 0u);
}

TEST(AlignServer, DifferentOptionsAreDifferentCacheKeys)
{
    Harness h;
    AlignClient client(h.clientConfig());
    ASSERT_TRUE(client.connect().ok());

    seq::Generator gen(606);
    const seq::SequencePair pair = gen.pair(150, 0.05);
    (void)client.alignBatch({pair}, true, 0);
    (void)client.alignBatch({pair}, false, 0); // different want_cigar
    (void)client.alignBatch({pair}, true, 3);  // different max_edits

    const ServeSnapshot snap = h.server->serveSnapshot();
    EXPECT_EQ(snap.cache_misses, 3u);
    EXPECT_EQ(snap.cache_entries, 3u);
}

TEST(AlignServer, ConcurrentDuplicatesCoalesce)
{
    // Single worker + a deliberately blocked engine: the first request
    // for the hot key is guaranteed still in flight when the duplicates
    // arrive, so they MUST coalesce (join the same future) rather than
    // resubmit.
    engine::EngineConfig ecfg;
    ecfg.workers = 1;
    Harness h({}, 1, ecfg);

    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    // Wait until the blocker occupies the only worker, so the hot
    // request cannot ride in the same pickup as the blocker.
    auto running = std::make_shared<std::promise<void>>();
    std::future<void> blocker_running = running->get_future();
    seq::Generator gen(11);
    const seq::SequencePair blocker_pair = gen.pair(50, 0.0);
    auto blocked = h.engines[0]->submit(
        blocker_pair,
        align::PairAligner([open, running](const seq::SequencePair &) {
            running->set_value();
            open.wait();
            return align::AlignResult{};
        }));
    blocker_running.wait();

    AlignClient client(h.clientConfig("dup"));
    ASSERT_TRUE(client.connect().ok());
    const seq::SequencePair hot = gen.pair(200, 0.05);
    constexpr size_t kRepeats = 8;

    // Stream the duplicates raw (no reads yet — responses can't arrive
    // while the engine is gated anyway).
    for (size_t i = 0; i < kRepeats; ++i) {
        AlignRequestFrame req;
        req.id = i;
        req.want_cigar = true;
        req.pattern = hot.pattern.str();
        req.text = hot.text.str();
        ASSERT_TRUE(client.sendRequest(req).ok());
    }
    ASSERT_TRUE(eventually([&] {
        return h.server->metrics().requests.load(std::memory_order_relaxed) ==
               kRepeats;
    }));

    const ServeSnapshot mid = h.server->serveSnapshot();
    EXPECT_EQ(mid.cache_misses, 1u);
    EXPECT_EQ(mid.cache_hits + mid.cache_coalesced, kRepeats - 1);
    EXPECT_GT(mid.cache_coalesced, 0u);

    gate.set_value();
    const i64 truth = align::nwAlign(hot.pattern, hot.text).distance;
    for (size_t i = 0; i < kRepeats; ++i) {
        AlignResponseFrame resp;
        ASSERT_TRUE(client.readResponse(resp).ok());
        EXPECT_EQ(resp.code, StatusCode::Ok);
        EXPECT_EQ(resp.distance, truth);
    }
    ASSERT_TRUE(blocked.get().ok());
    // Exactly one engine submission (plus the blocker) for 8 requests.
    EXPECT_EQ(h.engines[0]->metrics().submitted, 2u);
}

// -------------------------------------------------------------------
// Quotas and priority shedding.
// -------------------------------------------------------------------

TEST(QuotaRegistry, TokenBucketRefillsDeterministically)
{
    QuotaConfig qc;
    qc.tokens_per_sec = 2.0;
    qc.burst = 3.0;
    QuotaRegistry quota(qc);

    // A new client spends its full burst, then is throttled.
    EXPECT_TRUE(quota.admit("a", 100.0));
    EXPECT_TRUE(quota.admit("a", 100.0));
    EXPECT_TRUE(quota.admit("a", 100.0));
    EXPECT_FALSE(quota.admit("a", 100.0));
    // Half a second refills one token (2/s).
    EXPECT_TRUE(quota.admit("a", 100.5));
    EXPECT_FALSE(quota.admit("a", 100.5));
    // A backwards clock refills nothing (and must not crash).
    EXPECT_FALSE(quota.admit("a", 99.0));
    // Refill caps at the burst.
    EXPECT_TRUE(quota.admit("a", 1000.0));
    // Other clients have their own bucket.
    EXPECT_TRUE(quota.admit("b", 1000.0));

    // Disabled quotas admit everything.
    QuotaRegistry off{QuotaConfig{}};
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(off.admit("x", 0.0));
}

TEST(AlignServer, QuotaThrottlesChattyClient)
{
    AlignServerConfig scfg;
    scfg.quota.tokens_per_sec = 0.001; // effectively no refill in-test
    scfg.quota.burst = 4;
    Harness h(scfg);

    AlignClient client(h.clientConfig("chatty"));
    ASSERT_TRUE(client.connect().ok());
    seq::Generator gen(13);
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 10; ++i)
        pairs.push_back(gen.pair(100, 0.05));

    const auto results = client.alignBatch(pairs, false);
    size_t ok = 0, throttled = 0;
    for (const auto &r : results) {
        if (r.ok())
            ++ok;
        else if (r.status().code() == StatusCode::Overloaded)
            ++throttled;
    }
    EXPECT_EQ(ok, 4u);
    EXPECT_EQ(throttled, 6u);

    const ServeSnapshot snap = h.server->serveSnapshot();
    EXPECT_EQ(snap.quota_throttled, 6u);
    ASSERT_EQ(snap.clients.size(), 1u);
    EXPECT_EQ(snap.clients[0].throttled, 6u);
}

TEST(AlignServer, LowPriorityShedsBeforeHigh)
{
    // One worker, blocked by a gated custom aligner, makes "pending"
    // fully deterministic: serve-path requests pile up and cannot
    // complete until the gate opens.
    engine::EngineConfig ecfg;
    ecfg.workers = 1;
    AlignServerConfig scfg;
    scfg.pending_cap = 4; // watermarks: low 2, normal 3, high 4
    Harness h(scfg, 1, ecfg);

    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    seq::Generator gen(17);
    auto blocked = h.engines[0]->submit(
        gen.pair(50, 0.0),
        align::PairAligner([open](const seq::SequencePair &) {
            open.wait();
            return align::AlignResult{};
        }));

    // Fill pending to 3 with distinct requests from a HIGH-priority
    // filler (its watermark is the full cap, so none of these shed).
    AlignClient filler(h.clientConfig("filler", Priority::High));
    ASSERT_TRUE(filler.connect().ok());
    for (u64 i = 0; i < 3; ++i) {
        const seq::SequencePair p = gen.pair(80, 0.05);
        AlignRequestFrame req;
        req.id = i;
        req.pattern = p.pattern.str();
        req.text = p.text.str();
        ASSERT_TRUE(filler.sendRequest(req).ok());
    }
    ASSERT_TRUE(eventually([&] {
        return h.server->metrics().pending.load(std::memory_order_relaxed) ==
               3;
    }));

    // pending=3: >= low watermark (2) and >= normal (3), < high (4).
    AlignClient low(h.clientConfig("low", Priority::Low));
    ASSERT_TRUE(low.connect().ok());
    auto low_res = low.alignBatch({gen.pair(80, 0.05)}, false);
    ASSERT_FALSE(low_res[0].ok());
    EXPECT_EQ(low_res[0].status().code(), StatusCode::Overloaded);

    AlignClient normal(h.clientConfig("normal", Priority::Normal));
    ASSERT_TRUE(normal.connect().ok());
    auto normal_res = normal.alignBatch({gen.pair(80, 0.05)}, false);
    ASSERT_FALSE(normal_res[0].ok());
    EXPECT_EQ(normal_res[0].status().code(), StatusCode::Overloaded);

    // High priority is still admitted at pending=3; release the gate so
    // its (and the fillers') alignments actually run.
    AlignClient high(h.clientConfig("vip", Priority::High));
    ASSERT_TRUE(high.connect().ok());
    std::thread opener([&] {
        eventually([&] {
            return h.server->metrics().pending.load(
                       std::memory_order_relaxed) == 4;
        });
        gate.set_value();
    });
    auto high_res = high.alignBatch({gen.pair(80, 0.05)}, false);
    opener.join();
    ASSERT_TRUE(high_res[0].ok()) << high_res[0].status().toString();
    ASSERT_TRUE(blocked.get().ok());

    const ServeSnapshot snap = h.server->serveSnapshot();
    EXPECT_EQ(snap.shed_by_priority[static_cast<unsigned>(Priority::Low)],
              1u);
    EXPECT_EQ(
        snap.shed_by_priority[static_cast<unsigned>(Priority::Normal)], 1u);
    EXPECT_EQ(snap.shed_by_priority[static_cast<unsigned>(Priority::High)],
              0u);
}

// -------------------------------------------------------------------
// Shard routing.
// -------------------------------------------------------------------

TEST(ShardRouter, BalancesByOutstandingLoadAndSettlesOnComplete)
{
    engine::EngineConfig ecfg;
    ecfg.workers = 1;
    engine::Engine e0(ecfg), e1(ecfg);
    ServeMetrics metrics;
    RouterConfig rcfg;
    rcfg.cache_capacity = 0; // isolate routing from dedup
    ShardRouter router({&e0, &e1}, rcfg, &metrics);

    seq::Generator gen(19);
    std::vector<Ticket> tickets;
    for (int i = 0; i < 8; ++i)
        tickets.push_back(router.submit(gen.pair(100, 0.05), false, 0));

    // With equal-sized requests and no completions, the min-load pick
    // alternates: 4 requests per engine.
    auto stats = router.shardStats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].routed, 4u);
    EXPECT_EQ(stats[1].routed, 4u);
    EXPECT_EQ(router.outstanding(), 8u);

    for (auto &t : tickets) {
        ASSERT_TRUE(t.future.get().ok());
        router.complete(t, StatusCode::Ok);
    }
    EXPECT_EQ(router.outstanding(), 0u);
    stats = router.shardStats();
    EXPECT_EQ(stats[0].outstanding_bytes, 0u);
    EXPECT_EQ(stats[1].outstanding_bytes, 0u);
}

TEST(AlignServer, MultiEngineServingSpreadsLoad)
{
    // Gate every engine's lone worker so no request can complete while
    // the batch is being routed: outstanding load only grows, and the
    // least-loaded choice provably balances the shards. (Ungated, a
    // writer that drains as fast as the reader routes leaves every
    // decision a tie, which always picks shard 0.)
    engine::EngineConfig ecfg;
    ecfg.workers = 1;
    Harness h({}, 3, ecfg);

    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    seq::Generator gen(23);
    for (auto &e : h.engines) {
        (void)e->submit(gen.pair(40, 0.0),
                        align::PairAligner([open](const seq::SequencePair &) {
                            open.wait();
                            return align::AlignResult{};
                        }));
    }

    AlignClient client(h.clientConfig());
    ASSERT_TRUE(client.connect().ok());
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 30; ++i)
        pairs.push_back(gen.pair(150, 0.1));

    std::thread batch_thread([&] {
        const auto results = client.alignBatch(pairs, false);
        for (const auto &r : results)
            EXPECT_TRUE(r.ok());
    });
    // All 30 route while the engines are gated...
    ASSERT_TRUE(eventually([&] {
        u64 total = 0;
        for (const auto &s : h.server->serveSnapshot().shards)
            total += s.routed;
        return total == 30;
    }));
    const ServeSnapshot snap = h.server->serveSnapshot();
    gate.set_value();
    batch_thread.join();

    // ...and with loads frozen during routing, the spread is near-even:
    // a shard can lag the leaders by at most one request's weight.
    ASSERT_EQ(snap.shards.size(), 3u);
    u64 total = 0;
    for (const auto &s : snap.shards) {
        EXPECT_GE(s.routed, 9u) << "load spread is lopsided";
        total += s.routed;
    }
    EXPECT_EQ(total, 30u);
}

// -------------------------------------------------------------------
// Failure paths and lifecycle.
// -------------------------------------------------------------------

TEST(AlignServer, ValidationRejectsWithTypedStatusAndKeepsConnection)
{
    AlignServerConfig scfg;
    scfg.limits.reject_non_acgt = true;
    Harness h(scfg);
    AlignClient client(h.clientConfig());
    ASSERT_TRUE(client.connect().ok());

    AlignRequestFrame bad;
    bad.id = 1;
    bad.pattern = ""; // empty pattern: InvalidInput
    bad.text = "ACGT";
    ASSERT_TRUE(client.sendRequest(bad).ok());
    AlignResponseFrame resp;
    ASSERT_TRUE(client.readResponse(resp).ok());
    EXPECT_EQ(resp.id, 1u);
    EXPECT_EQ(resp.code, StatusCode::InvalidInput);

    bad.id = 2;
    bad.pattern = "ACGTNNNN"; // non-ACGT with reject_non_acgt
    ASSERT_TRUE(client.sendRequest(bad).ok());
    ASSERT_TRUE(client.readResponse(resp).ok());
    EXPECT_EQ(resp.id, 2u);
    EXPECT_EQ(resp.code, StatusCode::InvalidInput);

    // The connection survived request-level rejections.
    seq::Generator gen(29);
    auto good = client.alignBatch({gen.pair(100, 0.05)}, false);
    ASSERT_TRUE(good[0].ok());
    // And rejects never touched an engine or the cache.
    EXPECT_EQ(h.engines[0]->metrics().submitted, 1u);

    const ServeSnapshot snap = h.server->serveSnapshot();
    EXPECT_EQ(snap.responses_failed, 2u);
    EXPECT_EQ(snap.cache_misses, 1u);
}

TEST(AlignServer, ProtocolGarbageGetsTypedErrorNeverCrashes)
{
    Harness h;

    // Garbage instead of a Hello: typed error, connection closed.
    {
        int fd = net::connectTcp("127.0.0.1", h.server->port(),
                                 std::chrono::milliseconds(2000));
        ASSERT_GE(fd, 0);
        const std::string junk = "this is definitely not a gmx frame!!";
        ASSERT_EQ(net::sendAll(fd, junk.data(), junk.size()),
                  net::IoResult::Ok);
        char hdr[kHeaderBytes];
        ASSERT_EQ(net::recvExact(fd, hdr, kHeaderBytes), net::IoResult::Ok);
        FrameHeader fh;
        ASSERT_TRUE(
            decodeHeader(hdr, kHeaderBytes, kDefaultMaxFrameBytes, fh).ok());
        EXPECT_EQ(fh.type, FrameType::Error);
        ::close(fd);
    }

    // A legal handshake followed by an unexpected frame type.
    {
        int fd = net::connectTcp("127.0.0.1", h.server->port(),
                                 std::chrono::milliseconds(2000));
        ASSERT_GE(fd, 0);
        const std::string hello =
            encodeHello({Priority::Normal, 0, "rogue"});
        ASSERT_EQ(net::sendAll(fd, hello.data(), hello.size()),
                  net::IoResult::Ok);
        char hdr[kHeaderBytes];
        ASSERT_EQ(net::recvExact(fd, hdr, kHeaderBytes), net::IoResult::Ok);
        FrameHeader fh;
        ASSERT_TRUE(
            decodeHeader(hdr, kHeaderBytes, kDefaultMaxFrameBytes, fh).ok());
        ASSERT_EQ(fh.type, FrameType::HelloAck);
        std::string payload(fh.payload_len, '\0');
        ASSERT_EQ(net::recvExact(fd, payload.data(), payload.size()),
                  net::IoResult::Ok);

        // A HelloAck is a server->client frame; sending one is illegal.
        const std::string ack = encodeHelloAck({});
        ASSERT_EQ(net::sendAll(fd, ack.data(), ack.size()),
                  net::IoResult::Ok);
        ASSERT_EQ(net::recvExact(fd, hdr, kHeaderBytes), net::IoResult::Ok);
        ASSERT_TRUE(
            decodeHeader(hdr, kHeaderBytes, kDefaultMaxFrameBytes, fh).ok());
        EXPECT_EQ(fh.type, FrameType::Error);
        ::close(fd);
    }

    ASSERT_TRUE(eventually([&] {
        return h.server->serveSnapshot().protocol_errors >= 2;
    }));

    // The server is still healthy for well-behaved clients.
    AlignClient client(h.clientConfig());
    ASSERT_TRUE(client.connect().ok());
    seq::Generator gen(31);
    auto ok = client.alignBatch({gen.pair(100, 0.05)}, false);
    ASSERT_TRUE(ok[0].ok());
}

TEST(AlignServer, ConnectionCapRefusesWithTypedError)
{
    AlignServerConfig scfg;
    scfg.max_connections = 1;
    scfg.handler_threads = 1;
    Harness h(scfg);

    AlignClient first(h.clientConfig("one"));
    ASSERT_TRUE(first.connect().ok());

    AlignClient second(h.clientConfig("two"));
    const Status s = second.connect();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::Overloaded);
    EXPECT_EQ(h.server->serveSnapshot().connections_refused, 1u);

    // Releasing the first slot lets a new client in.
    EXPECT_TRUE(first.bye().ok());
    ASSERT_TRUE(eventually(
        [&] { return second.connected() || second.connect().ok(); }));
}

TEST(AlignServer, GracefulStopDrainsInFlightBatch)
{
    Harness h;
    AlignClient client(h.clientConfig("drainer"));
    ASSERT_TRUE(client.connect().ok());

    seq::Generator gen(37);
    constexpr size_t kBatch = 12;
    std::vector<seq::SequencePair> pairs;
    for (size_t i = 0; i < kBatch; ++i) {
        pairs.push_back(gen.pair(300, 0.1));
        AlignRequestFrame req;
        req.id = i;
        req.want_cigar = false;
        req.pattern = pairs[i].pattern.str();
        req.text = pairs[i].text.str();
        ASSERT_TRUE(client.sendRequest(req).ok());
    }
    // Every request is accepted server-side, then stop() races the
    // engine: all 12 must still be answered before the socket closes.
    ASSERT_TRUE(eventually([&] {
        return h.server->metrics().requests.load(
                   std::memory_order_relaxed) == kBatch;
    }));
    std::thread stopper([&] { h.server->stop(); });

    size_t answered = 0;
    for (size_t i = 0; i < kBatch; ++i) {
        AlignResponseFrame resp;
        if (!client.readResponse(resp).ok())
            break;
        EXPECT_EQ(resp.code, StatusCode::Ok);
        EXPECT_EQ(resp.distance,
                  align::nwAlign(pairs[resp.id].pattern,
                                 pairs[resp.id].text)
                      .distance);
        ++answered;
    }
    stopper.join();
    EXPECT_EQ(answered, kBatch);
    EXPECT_FALSE(h.server->running());
    EXPECT_EQ(h.server->serveSnapshot().pending, 0u);
}

TEST(AlignServer, QueuedConnectionIsRefusedAfterStop)
{
    AlignServerConfig scfg;
    scfg.handler_threads = 1;
    scfg.io_timeout = std::chrono::milliseconds(1000);
    Harness h(scfg);

    // The first client holds the only handler.
    AlignClient holder(h.clientConfig("holder"));
    ASSERT_TRUE(holder.connect().ok());

    // The second is accepted but waits in the queue, its Hello unanswered.
    AlignClient queued(h.clientConfig("queued"));
    auto queued_connect =
        std::async(std::launch::async, [&] { return queued.connect(); });
    ASSERT_TRUE(eventually([&] {
        return h.server->metrics().connections_accepted.load(
                   std::memory_order_relaxed) == 2;
    }));

    // stop() half-closes the holder, which frees the handler; the
    // handler then picks the queued connection up after stop() began
    // and must refuse it rather than handshake it.
    std::thread stopper([&] { h.server->stop(); });
    const Status s = queued_connect.get();
    stopper.join();
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::Unavailable) << s.toString();
    EXPECT_FALSE(queued.connected());
    EXPECT_EQ(h.server->serveSnapshot().connections_refused, 1u);
}

TEST(AlignServer, RestartAfterStopServesAgain)
{
    Harness h;
    seq::Generator gen(43);
    const seq::SequencePair before = gen.pair(100, 0.05);
    {
        AlignClient client(h.clientConfig("before"));
        ASSERT_TRUE(client.connect().ok());
        const auto r = client.alignBatch({before}, false);
        ASSERT_TRUE(r[0].ok()) << r[0].status().toString();
        EXPECT_EQ(r[0]->distance,
                  align::nwAlign(before.pattern, before.text).distance);
        EXPECT_TRUE(client.bye().ok());
    }
    h.server->stop();
    EXPECT_FALSE(h.server->running());
    EXPECT_EQ(h.server->port(), 0);

    // The same server object binds again and serves as before.
    ASSERT_TRUE(h.server->start().ok());
    EXPECT_TRUE(h.server->running());
    AlignClient client(h.clientConfig("after"));
    ASSERT_TRUE(client.connect().ok());
    const seq::SequencePair after = gen.pair(100, 0.05);
    const auto r = client.alignBatch({after}, false);
    ASSERT_TRUE(r[0].ok()) << r[0].status().toString();
    EXPECT_EQ(r[0]->distance,
              align::nwAlign(after.pattern, after.text).distance);
    EXPECT_TRUE(client.bye().ok());
    h.server->stop();
    EXPECT_EQ(h.server->serveSnapshot().requests, 2u);
}

TEST(AlignServer, StartFailsCleanlyWhenPortIsTaken)
{
    Harness h;
    AlignServerConfig scfg;
    scfg.port = h.server->port(); // already bound by the harness server
    std::vector<engine::Engine *> raw{h.engines[0].get()};
    AlignServer clash(raw, scfg);
    const Status s = clash.start();
    EXPECT_FALSE(s.ok());
    EXPECT_FALSE(clash.running());
    EXPECT_EQ(clash.port(), 0);

    // The failed server holds nothing; the harness server still serves.
    AlignClient client(h.clientConfig());
    ASSERT_TRUE(client.connect().ok());
    EXPECT_TRUE(client.bye().ok());
}

TEST(AlignServer, SnapshotRendersJsonAndOpenMetrics)
{
    Harness h;
    AlignClient client(h.clientConfig("obs"));
    ASSERT_TRUE(client.connect().ok());
    seq::Generator gen(41);
    const seq::SequencePair p = gen.pair(100, 0.05);
    (void)client.alignBatch({p, p}, false); // one miss, one hit

    const ServeSnapshot snap = h.server->serveSnapshot();
    const std::string json = snap.toJson();
    EXPECT_NE(json.find("\"requests\":2"), std::string::npos);
    EXPECT_NE(json.find("\"clients\":[{\"id\":\"obs\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cache\":{"), std::string::npos);

    const std::string om = renderServeOpenMetrics(snap);
    EXPECT_NE(om.find("gmx_serve_requests_total 2"), std::string::npos);
    EXPECT_NE(om.find("gmx_serve_shed_total{priority=\"low\"}"),
              std::string::npos);
    EXPECT_NE(om.find("gmx_serve_client_requests_total{client=\"obs\"} 2"),
              std::string::npos);
    EXPECT_NE(om.find("gmx_serve_shard_routed_total{shard=\"0\"}"),
              std::string::npos);
    EXPECT_EQ(om.find("# EOF"), std::string::npos);
    EXPECT_GT(snap.cacheHitRate(), 0.0);
}

// -------------------------------------------------------------------
// Deadline propagation.
// -------------------------------------------------------------------

TEST(ServeProtocol, DeadlineExtensionRoundTripsAndStaysGated)
{
    AlignRequestFrame in;
    in.id = 9;
    in.want_cigar = false;
    in.pattern = "ACGT";
    in.text = "ACGA";

    // No deadline: no flags set, no trailing bytes — a v1-shaped frame.
    const std::string plain = encodeAlignRequest(in);
    AlignRequestFrame out;
    ASSERT_TRUE(decodeAlignRequest(plain.data() + kHeaderBytes,
                                   plain.size() - kHeaderBytes, out)
                    .ok());
    EXPECT_EQ(out.deadline_us, 0u);

    // With a deadline: exactly one trailing u64, faithfully recovered.
    in.deadline_us = 1234567;
    const std::string timed = encodeAlignRequest(in);
    EXPECT_EQ(timed.size(), plain.size() + 8);
    ASSERT_TRUE(decodeAlignRequest(timed.data() + kHeaderBytes,
                                   timed.size() - kHeaderBytes, out)
                    .ok());
    EXPECT_EQ(out.deadline_us, 1234567u);

    // Unknown flag bits are a hard reject, not a silent skip.
    std::string tampered = plain;
    tampered[kHeaderBytes + 13] = 2;
    EXPECT_FALSE(decodeAlignRequest(tampered.data() + kHeaderBytes,
                                    tampered.size() - kHeaderBytes, out)
                     .ok());

    // Deadline flag with the trailing budget missing: truncated, reject.
    std::string cut = timed.substr(0, timed.size() - 8);
    cut[8] = static_cast<char>(cut.size() - kHeaderBytes); // fix len
    EXPECT_FALSE(decodeAlignRequest(cut.data() + kHeaderBytes,
                                    cut.size() - kHeaderBytes, out)
                     .ok());
}

TEST(AlignServer, DeadlineFeatureIsNegotiated)
{
    Harness h;
    AlignClient client(h.clientConfig("negotiator"));
    ASSERT_TRUE(client.connect().ok());
    EXPECT_EQ(client.serverFeatures() & kFeatureDeadline,
              kFeatureDeadline);

    // A v1-style peer that offers nothing gets nothing echoed, and its
    // requests still work — the extension never rides uninvited.
    int fd = net::connectTcp("127.0.0.1", h.server->port(),
                             std::chrono::milliseconds(2000));
    ASSERT_GE(fd, 0);
    const std::string hello = encodeHello({Priority::Normal, 0, "v1"});
    ASSERT_EQ(net::sendAll(fd, hello.data(), hello.size()),
              net::IoResult::Ok);
    char hdr[kHeaderBytes];
    ASSERT_EQ(net::recvExact(fd, hdr, kHeaderBytes), net::IoResult::Ok);
    FrameHeader fh;
    ASSERT_TRUE(
        decodeHeader(hdr, kHeaderBytes, kDefaultMaxFrameBytes, fh).ok());
    ASSERT_EQ(fh.type, FrameType::HelloAck);
    std::string payload(fh.payload_len, '\0');
    ASSERT_EQ(net::recvExact(fd, payload.data(), payload.size()),
              net::IoResult::Ok);
    HelloAckFrame ack;
    ASSERT_TRUE(decodeHelloAck(payload.data(), payload.size(), ack).ok());
    EXPECT_EQ(ack.features, 0u);
    ::close(fd);
}

TEST(AlignServer, DeadlineCancelsLongKernelMidFlight)
{
    // A pair big and noisy enough that the cascade escalates to the
    // full-matrix tier, where an uninterrupted run takes far longer
    // than the budget: the response must come back DeadlineExceeded via
    // the engine's cooperative cancel gate, not hang until completion.
    Harness h;
    AlignClient client(h.clientConfig("impatient"));
    ASSERT_TRUE(client.connect().ok());
    ASSERT_NE(client.serverFeatures() & kFeatureDeadline, 0);

    seq::Generator gen(271);
    const seq::SequencePair huge = gen.pair(12000, 0.35);

    BatchOptions opts;
    opts.want_cigar = false;
    opts.deadline = std::chrono::milliseconds(100);
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = client.alignBatch({huge}, opts);
    const auto elapsed = std::chrono::steady_clock::now() - t0;

    ASSERT_EQ(results.size(), 1u);
    ASSERT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].status().code(), StatusCode::DeadlineExceeded);
    // The kernel was entered and then stopped early (not refused at the
    // door, not run to completion).
    EXPECT_EQ(h.engines[0]->metrics().submitted, 1u);
    EXPECT_GE(h.engines[0]->metrics().deadline_missed, 1u);
    EXPECT_LT(elapsed, std::chrono::seconds(30));

    const ServeSnapshot snap = h.server->serveSnapshot();
    EXPECT_EQ(snap.deadline_requests, 1u);
    EXPECT_EQ(snap.deadline_refused, 0u);
    EXPECT_GE(snap.deadline_budget_us, 100000u);
}

// -------------------------------------------------------------------
// Client retries.
// -------------------------------------------------------------------

TEST(AlignClient, RetryCompletesPartialBatchAfterThrottle)
{
    // Quota burst 4 with a fast refill: the first attempt resolves 4
    // pairs and leaves 4 throttled (Overloaded — retryable); backoff
    // retries must finish the rest without resubmitting resolved slots.
    AlignServerConfig scfg;
    scfg.quota.tokens_per_sec = 200.0;
    scfg.quota.burst = 4;
    Harness h(scfg);

    AlignClient client(h.clientConfig("retrier"));
    ASSERT_TRUE(client.connect().ok());
    seq::Generator gen(43);
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 8; ++i)
        pairs.push_back(gen.pair(80, 0.05));

    BatchOptions opts;
    opts.want_cigar = false;
    opts.retry.max_attempts = 20;
    opts.retry.initial_backoff = std::chrono::milliseconds(20);
    opts.retry.max_backoff = std::chrono::milliseconds(100);
    const auto results = client.alignBatch(pairs, opts);
    for (size_t i = 0; i < pairs.size(); ++i) {
        ASSERT_TRUE(results[i].ok()) << results[i].status().toString();
        EXPECT_EQ(results[i]->distance,
                  align::nwAlign(pairs[i].pattern, pairs[i].text).distance);
    }
    ASSERT_GE(client.attempts().size(), 2u);
    EXPECT_EQ(client.attempts()[0].resolved, 4u);
    EXPECT_EQ(client.attempts()[0].retryable, 4u);
    size_t resolved_total = 0;
    for (const AttemptLog &a : client.attempts())
        resolved_total += a.resolved;
    EXPECT_EQ(resolved_total, pairs.size());
}

TEST(AlignClient, InvalidInputIsNeverRetried)
{
    Harness h;
    AlignClient client(h.clientConfig("strict"));
    ASSERT_TRUE(client.connect().ok());

    seq::Generator gen(47);
    std::vector<seq::SequencePair> pairs;
    pairs.push_back(gen.pair(60, 0.05));
    pairs.push_back({seq::Sequence(""), seq::Sequence("ACGT")});

    BatchOptions opts;
    opts.want_cigar = false;
    opts.retry.max_attempts = 5;
    opts.retry.initial_backoff = std::chrono::milliseconds(1);
    const auto results = client.alignBatch(pairs, opts);
    ASSERT_TRUE(results[0].ok());
    ASSERT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].status().code(), StatusCode::InvalidInput);
    // The malformed pair was final on the first attempt: no retries ran
    // and the server saw each pair exactly once.
    EXPECT_EQ(client.attempts().size(), 1u);
    EXPECT_EQ(h.server->serveSnapshot().requests, pairs.size());
}

TEST(AlignClient, RetryIdempotencyUnderRandomConnectionCuts)
{
    // Fuzz-style: a seeded hook kills the connection at pseudo-random
    // frame boundaries mid-batch. Every pair must still resolve exactly
    // once with the correct distance, and the dedup cache must absorb
    // resubmissions of work the server already did (no duplicate
    // kernel submissions beyond the unique pair count).
    Harness h;
    seq::Generator gen(53);
    constexpr size_t kPairs = 30;
    std::vector<seq::SequencePair> pairs;
    for (size_t i = 0; i < kPairs; ++i)
        pairs.push_back(gen.pair(90, 0.08));

    ClientConfig ccfg = h.clientConfig("cutter");
    ccfg.window = 2;
    // Drop after 4..11 requests on each connection, re-seeded per cut.
    u64 rng = 0xfeedfacecafebeefull;
    u64 next_cut = 4 + (rng % 8);
    ccfg.chaos_drop = [&rng, &next_cut](u64 sent) {
        if (sent < next_cut)
            return false;
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        next_cut = 4 + (rng >> 33) % 8;
        return true;
    };
    AlignClient client(ccfg);
    ASSERT_TRUE(client.connect().ok());

    BatchOptions opts;
    opts.want_cigar = false;
    opts.retry.max_attempts = 40;
    opts.retry.initial_backoff = std::chrono::milliseconds(1);
    opts.retry.max_backoff = std::chrono::milliseconds(4);
    const auto results = client.alignBatch(pairs, opts);

    size_t resolved_total = 0, cut_attempts = 0;
    for (const AttemptLog &a : client.attempts()) {
        resolved_total += a.resolved;
        if (!a.failure.ok())
            ++cut_attempts;
    }
    EXPECT_EQ(resolved_total, kPairs) << "a pair resolved != once";
    EXPECT_GT(cut_attempts, 0u) << "the chaos hook never fired";
    for (size_t i = 0; i < kPairs; ++i) {
        ASSERT_TRUE(results[i].ok()) << results[i].status().toString();
        EXPECT_EQ(results[i]->distance,
                  align::nwAlign(pairs[i].pattern, pairs[i].text).distance);
    }
    // Dedup holds the line on duplicate submissions across retries.
    EXPECT_LE(h.engines[0]->metrics().submitted, kPairs);
    // Every request the server accepted was answered (ledger balance),
    // even the ones whose responses died with a cut connection.
    ASSERT_TRUE(eventually([&] {
        const ServeSnapshot s = h.server->serveSnapshot();
        return s.requests > 0 &&
               s.requests == s.responses_ok + s.responses_failed;
    }));
}

// -------------------------------------------------------------------
// Circuit breaker.
// -------------------------------------------------------------------

TEST(ShardRouter, BreakerOpensRoutesAroundProbesAndRecovers)
{
    engine::EngineConfig ecfg;
    ecfg.workers = 1;
    engine::Engine e0(ecfg), e1(ecfg);
    ServeMetrics metrics;
    RouterConfig rcfg;
    rcfg.cache_capacity = 0;
    rcfg.breaker_window = 8;
    rcfg.breaker_min_samples = 4;
    rcfg.breaker_open_ratio = 0.5;
    rcfg.breaker_cooldown = std::chrono::milliseconds(50);
    ShardRouter router({&e0, &e1}, rcfg, &metrics);

    seq::Generator gen(59);
    // Fail every completion that landed on shard 0; shard 1 is healthy.
    // (The breaker judges the codes the caller reports, so the test
    // drives the window deterministically.)
    size_t shard0_fails = 0;
    for (int i = 0; i < 10 && router.breakerState(0) == BreakerState::Closed;
         ++i) {
        Ticket t = router.submit(gen.pair(60, 0.05), false, 0);
        ASSERT_TRUE(t.future.get().ok());
        if (t.shard == 0) {
            router.complete(t, StatusCode::Internal);
            ++shard0_fails;
        } else {
            router.complete(t, StatusCode::Ok);
        }
    }
    ASSERT_EQ(router.breakerState(0), BreakerState::Open);
    ASSERT_GE(shard0_fails, rcfg.breaker_min_samples);
    EXPECT_GE(metrics.breaker_opens.load(std::memory_order_relaxed), 1u);

    // Open: every submit routes to the healthy shard, none to shard 0.
    for (int i = 0; i < 6; ++i) {
        Ticket t = router.submit(gen.pair(60, 0.05), false, 0);
        EXPECT_EQ(t.shard, 1u);
        ASSERT_TRUE(t.future.get().ok());
        router.complete(t, StatusCode::Ok);
    }

    // After the cooldown, exactly one probe is admitted back to shard 0
    // while the breaker is half-open; its success closes the breaker.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    Ticket probe = router.submit(gen.pair(60, 0.05), false, 0);
    EXPECT_TRUE(probe.probe);
    EXPECT_EQ(probe.shard, 0u);
    EXPECT_EQ(router.breakerState(0), BreakerState::HalfOpen);
    // While the probe is in flight, shard 0 admits nothing else.
    Ticket bystander = router.submit(gen.pair(60, 0.05), false, 0);
    EXPECT_EQ(bystander.shard, 1u);
    ASSERT_TRUE(bystander.future.get().ok());
    router.complete(bystander, StatusCode::Ok);

    ASSERT_TRUE(probe.future.get().ok());
    router.complete(probe, StatusCode::Ok);
    EXPECT_EQ(router.breakerState(0), BreakerState::Closed);

    const auto stats = router.shardStats();
    EXPECT_EQ(stats[0].breaker_opens, 1u);
    EXPECT_EQ(stats[0].breaker_probes, 1u);
}

TEST(ShardRouter, AllShardsOpenYieldsTypedUnavailable)
{
    engine::EngineConfig ecfg;
    ecfg.workers = 1;
    engine::Engine e0(ecfg);
    ServeMetrics metrics;
    RouterConfig rcfg;
    rcfg.cache_capacity = 0;
    rcfg.breaker_window = 4;
    rcfg.breaker_min_samples = 2;
    rcfg.breaker_open_ratio = 0.5;
    rcfg.breaker_cooldown = std::chrono::seconds(30); // stays open
    ShardRouter router({&e0}, rcfg, &metrics);

    seq::Generator gen(61);
    for (int i = 0; i < 2; ++i) {
        Ticket t = router.submit(gen.pair(60, 0.05), false, 0);
        ASSERT_TRUE(t.future.get().ok());
        router.complete(t, StatusCode::EngineStopped);
    }
    ASSERT_EQ(router.breakerState(0), BreakerState::Open);

    Ticket refused = router.submit(gen.pair(60, 0.05), false, 0);
    EXPECT_FALSE(refused.owner);
    const auto outcome = refused.future.get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::Unavailable);
    EXPECT_GE(metrics.breaker_rejected.load(std::memory_order_relaxed),
              1u);
    // complete() on a refused ticket is a harmless no-op.
    router.complete(refused, StatusCode::Unavailable);
    EXPECT_EQ(router.outstanding(), 0u);
}

TEST(ShardRouter, BreakerTripDrainsTheSickShardsCacheEntries)
{
    engine::EngineConfig ecfg;
    ecfg.workers = 1;
    engine::Engine e0(ecfg), e1(ecfg);
    ServeMetrics metrics;
    RouterConfig rcfg;
    rcfg.breaker_window = 4;
    rcfg.breaker_min_samples = 2;
    rcfg.breaker_open_ratio = 0.5;
    rcfg.breaker_cooldown = std::chrono::seconds(30);
    ShardRouter router({&e0, &e1}, rcfg, &metrics);

    seq::Generator gen(67);
    // Seed the cache with successful results on both shards.
    std::vector<Ticket> seeded;
    std::vector<seq::SequencePair> seeded_pairs;
    for (int i = 0; i < 6; ++i) {
        seeded_pairs.push_back(gen.pair(60, 0.05));
        seeded.push_back(router.submit(seeded_pairs.back(), false, 0));
    }
    size_t on_shard0 = 0;
    for (auto &t : seeded) {
        ASSERT_TRUE(t.future.get().ok());
        router.complete(t, StatusCode::Ok);
        if (t.shard == 0)
            ++on_shard0;
    }
    ASSERT_GT(on_shard0, 0u);
    ASSERT_EQ(router.cacheEntries(), seeded.size());

    // Trip shard 0: its cached entries must be ejected (a sick shard's
    // results are suspect), the healthy shard's must survive.
    for (int i = 0; i < 4 && router.breakerState(0) == BreakerState::Closed;
         ++i) {
        Ticket t = router.submit(gen.pair(70, 0.1), false, 0);
        ASSERT_TRUE(t.future.get().ok());
        router.complete(t, t.shard == 0 ? StatusCode::Internal
                                        : StatusCode::Ok);
    }
    ASSERT_EQ(router.breakerState(0), BreakerState::Open);
    EXPECT_GE(metrics.cache_drained.load(std::memory_order_relaxed),
              on_shard0);
    EXPECT_LT(router.cacheEntries(), seeded.size() + 4);
    // A re-request of a drained pair is a miss, not a poisoned hit.
    const u64 misses_before =
        metrics.cache_misses.load(std::memory_order_relaxed);
    Ticket again = router.submit(seeded_pairs[0], false, 0);
    EXPECT_FALSE(again.cache_hit || again.coalesced ||
                 metrics.cache_misses.load(std::memory_order_relaxed) ==
                     misses_before);
    ASSERT_TRUE(again.future.get().ok());
    router.complete(again, StatusCode::Ok);
}

// -------------------------------------------------------------------
// Brownout.
// -------------------------------------------------------------------

TEST(AlignServer, BrownoutShedsLowThenNormalOnQueueWait)
{
    engine::EngineConfig ecfg;
    ecfg.workers = 1;
    AlignServerConfig scfg;
    scfg.brownout_low = std::chrono::milliseconds(20);
    scfg.brownout_normal = std::chrono::milliseconds(200);
    scfg.brownout_alpha = 1.0; // EWMA == last sample: deterministic
    Harness h(scfg, 1, ecfg);

    seq::Generator gen(71);
    auto slowRequest = [&](std::chrono::milliseconds hold) {
        // Gate the lone worker, push one High request through it, and
        // hold the gate long enough that its observed queue wait is at
        // least `hold` — a deterministic lower bound on the EWMA.
        std::promise<void> gate;
        std::shared_future<void> open = gate.get_future().share();
        std::promise<void> started;
        auto blocked = h.engines[0]->submit(
            gen.pair(40, 0.0),
            align::PairAligner([open, &started](const seq::SequencePair &) {
                started.set_value();
                open.wait();
                return align::AlignResult{};
            }));
        // Only once the blocker is RUNNING is the vip request guaranteed
        // to wait behind it rather than fuse with it.
        started.get_future().wait();
        AlignClient vip(h.clientConfig("vip", Priority::High));
        ASSERT_TRUE(vip.connect().ok());
        std::thread opener([&] {
            eventually([&] {
                return h.server->metrics().pending.load(
                           std::memory_order_relaxed) >= 1;
            });
            std::this_thread::sleep_for(hold);
            gate.set_value();
        });
        auto res = vip.alignBatch({gen.pair(60, 0.05)}, false);
        opener.join();
        ASSERT_TRUE(res[0].ok()) << res[0].status().toString();
        ASSERT_TRUE(blocked.get().ok());
    };

    // Level 0: everything admitted.
    AlignClient low(h.clientConfig("low", Priority::Low));
    ASSERT_TRUE(low.connect().ok());
    ASSERT_TRUE(low.alignBatch({gen.pair(60, 0.05)}, false)[0].ok());

    // One slow response past brownout_low: level 1, Low sheds, Normal
    // still admitted.
    slowRequest(std::chrono::milliseconds(40));
    ASSERT_GE(h.server->metrics().queue_wait_ewma_us.load(
                  std::memory_order_relaxed),
              20000u);
    auto low_res = low.alignBatch({gen.pair(60, 0.05)}, false);
    ASSERT_FALSE(low_res[0].ok());
    EXPECT_EQ(low_res[0].status().code(), StatusCode::Overloaded);
    AlignClient normal(h.clientConfig("norm", Priority::Normal));
    ASSERT_TRUE(normal.connect().ok());
    ASSERT_TRUE(normal.alignBatch({gen.pair(60, 0.05)}, false)[0].ok());

    // Past brownout_normal: level 2, Normal sheds too, High still in.
    slowRequest(std::chrono::milliseconds(250));
    auto normal_res = normal.alignBatch({gen.pair(60, 0.05)}, false);
    ASSERT_FALSE(normal_res[0].ok());
    EXPECT_EQ(normal_res[0].status().code(), StatusCode::Overloaded);
    AlignClient vip2(h.clientConfig("vip2", Priority::High));
    ASSERT_TRUE(vip2.connect().ok());
    ASSERT_TRUE(vip2.alignBatch({gen.pair(60, 0.05)}, false)[0].ok());

    const ServeSnapshot snap = h.server->serveSnapshot();
    EXPECT_EQ(snap.brownout_shed[static_cast<unsigned>(Priority::Low)],
              1u);
    EXPECT_EQ(snap.brownout_shed[static_cast<unsigned>(Priority::Normal)],
              1u);
    EXPECT_EQ(snap.brownout_shed[static_cast<unsigned>(Priority::High)],
              0u);
    EXPECT_GE(snap.brownout_level, 2u);
}

// -------------------------------------------------------------------
// End-to-end: a wedged shard cannot take the service down.
// -------------------------------------------------------------------

TEST(AlignServer, WedgedShardBreakerOpensAndBatchSurvives)
{
    // Shard 0 is force-wedged: its lone worker and its whole (tiny)
    // queue are pinned by gated jobs, and Reject backpressure makes
    // every routed request fail fast with Overloaded. The breaker must
    // open within its rolling window, traffic must fail over to the
    // healthy shard, and a 1k-request batch must complete with >= 99%
    // success and zero hangs.
    engine::EngineConfig ecfg;
    ecfg.workers = 1;
    ecfg.queue_capacity = 2;
    ecfg.backpressure = engine::Backpressure::Reject;
    AlignServerConfig scfg;
    scfg.pending_cap = 0; // isolate the breaker from watermark shed
    scfg.router.cache_capacity = 0;
    scfg.router.breaker_window = 8;
    scfg.router.breaker_min_samples = 2;
    scfg.router.breaker_open_ratio = 0.5;
    scfg.router.breaker_cooldown = std::chrono::seconds(60); // stays open
    Harness h(scfg, 2, ecfg);

    // Wedge shard 0. Its lone worker pops the queue only when free, so
    // the wedge is: gated job A running (wait for its started signal),
    // then gated jobs B and C parked in the queue, filling it. Only then
    // does every routed request bounce — anything sloppier leaves a
    // queue slot that swallows a client request into a forever-blocked
    // future.
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::promise<void> started;
    seq::Generator gen(73);
    std::vector<std::future<engine::Engine::AlignOutcome>> wedged;
    wedged.push_back(h.engines[0]->submit(
        gen.pair(40, 0.0),
        align::PairAligner([open, &started](const seq::SequencePair &) {
            started.set_value();
            open.wait();
            return align::AlignResult{};
        })));
    started.get_future().wait();
    for (int i = 0; i < 2; ++i) {
        wedged.push_back(h.engines[0]->submit(
            gen.pair(40, 0.0),
            align::PairAligner([open](const seq::SequencePair &) {
                open.wait();
                return align::AlignResult{};
            })));
    }
    ASSERT_EQ(h.engines[0]->metrics().queue_depth, 2u);

    constexpr size_t kBatch = 1000;
    std::vector<seq::SequencePair> pairs;
    pairs.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i)
        pairs.push_back(gen.pair(60, 0.05));

    // Window 2: the lone healthy worker (queue cap 2) can always absorb
    // the in-flight load, so only the wedged shard ever rejects.
    ClientConfig ccfg = h.clientConfig("survivor");
    ccfg.window = 2;
    AlignClient client(ccfg);
    ASSERT_TRUE(client.connect().ok());
    BatchOptions opts;
    opts.want_cigar = false;
    opts.retry.max_attempts = 4;
    opts.retry.initial_backoff = std::chrono::milliseconds(1);
    opts.retry.max_backoff = std::chrono::milliseconds(8);
    const auto results = client.alignBatch(pairs, opts);

    size_t ok = 0;
    for (size_t i = 0; i < kBatch; ++i)
        if (results[i].ok() && results[i]->found())
            ++ok;
    EXPECT_GE(ok, (kBatch * 99) / 100)
        << "too many client-visible failures";

    // Ledger balances once the last in-flight responses are written.
    const bool balanced = eventually([&] {
        const ServeSnapshot s = h.server->serveSnapshot();
        return s.requests == s.responses_ok + s.responses_failed;
    });
    {
        const ServeSnapshot s = h.server->serveSnapshot();
        ASSERT_TRUE(balanced)
            << "requests=" << s.requests << " ok=" << s.responses_ok
            << " failed=" << s.responses_failed << " pending=" << s.pending
            << " throttled=" << s.quota_throttled;
    }
    const ServeSnapshot snap = h.server->serveSnapshot();
    EXPECT_GE(snap.breaker_opens, 1u);
    ASSERT_EQ(snap.shards.size(), 2u);
    EXPECT_EQ(snap.shards[0].breaker_state,
              static_cast<u8>(BreakerState::Open));
    // The healthy shard carried (nearly) everything.
    EXPECT_GE(snap.shards[1].routed, (kBatch * 95) / 100);

    gate.set_value();
    for (auto &w : wedged)
        (void)w.get();
}

// -------------------------------------------------------------------
// Serve metrics renders.
// -------------------------------------------------------------------

/** Every ServeSnapshot field distinct and non-zero: two shards, two clients. */
serve::ServeSnapshot
goldenServeSnapshot()
{
    serve::ServeSnapshot s;
    u64 v = 101;
    for (u64 *f :
         {&s.connections_accepted, &s.connections_refused,
          &s.accept_failures, &s.protocol_errors, &s.frames_in,
          &s.frames_out, &s.bytes_in, &s.bytes_out, &s.requests,
          &s.responses_ok, &s.responses_failed, &s.quota_throttled,
          &s.pending, &s.cache_hits, &s.cache_coalesced, &s.cache_misses,
          &s.cache_evictions, &s.cache_invalidated, &s.cache_drained,
          &s.cache_entries, &s.deadline_requests, &s.deadline_refused,
          &s.deadline_budget_us, &s.deadline_queue_spent_us,
          &s.breaker_opens, &s.breaker_rejected, &s.queue_wait_ewma_us,
          &s.watchdog_kills})
        *f = v++;
    for (u64 &p : s.shed_by_priority)
        p = v++;
    for (u64 &p : s.brownout_shed)
        p = v++;
    s.pending_peak = 9876543210ull;
    s.brownout_level = 2;
    for (unsigned i = 0; i < 2; ++i) {
        serve::ShardStats sh;
        for (u64 *f : {&sh.routed, &sh.outstanding, &sh.outstanding_bytes,
                       &sh.breaker_opens, &sh.breaker_probes,
                       &sh.window_samples, &sh.window_fails})
            *f = v++;
        sh.breaker_state = i + 1;
        s.shards.push_back(sh);
    }
    for (const char *id : {"alpha", "beta-7"}) {
        serve::ClientStats c;
        c.id = id;
        for (u64 *f : {&c.requests, &c.throttled, &c.shed, &c.completed,
                       &c.failed})
            *f = v++;
        s.clients.push_back(c);
    }
    return s;
}

const char *const kGoldenServeJson =
    R"js({"connections_accepted":101,"connections_refused":102,)js"
    R"js("accept_failures":103,"protocol_errors":104,"frames_in":105,)js"
    R"js("frames_out":106,"bytes_in":107,"bytes_out":108,"requests":109,)js"
    R"js("responses_ok":110,"responses_failed":111,"quota_throttled":112,)js"
    R"js("shed":{"low":129,"normal":130,"high":131},"pending":113,)js"
    R"js("pending_peak":9876543210,"cache":{"hits":114,"coalesced":115,)js"
    R"js("misses":116,"evictions":117,"invalidated":118,"drained":119,)js"
    R"js("entries":120,"hit_rate":0.663768115942029},)js"
    R"js("deadline":{"requests":121,)js"
    R"js("refused":122,"budget_us":123,"queue_spent_us":124},)js"
    R"js("resilience":{"breaker_opens":125,"breaker_rejected":126,)js"
    R"js("brownout_shed":{"low":132,"normal":133,"high":134},)js"
    R"js("brownout_level":2,"queue_wait_ewma_us":127,"watchdog_kills":128},)js"
    R"js("shards":[{"routed":135,"outstanding":136,"outstanding_bytes":137,)js"
    R"js("breaker_state":1,"breaker_opens":138,"breaker_probes":139,)js"
    R"js("window_samples":140,"window_fails":141},{"routed":142,)js"
    R"js("outstanding":143,"outstanding_bytes":144,"breaker_state":2,)js"
    R"js("breaker_opens":145,"breaker_probes":146,"window_samples":147,)js"
    R"js("window_fails":148}],"clients":[{"id":"alpha","requests":149,)js"
    R"js("throttled":150,"shed":151,"completed":152,"failed":153},)js"
    R"js({"id":"beta-7","requests":154,"throttled":155,"shed":156,)js"
    R"js("completed":157,"failed":158}]})js";

const char *const kGoldenServeOpenMetrics = R"om(
# TYPE gmx_serve_connections_accepted counter
gmx_serve_connections_accepted_total 101
# TYPE gmx_serve_connections_refused counter
gmx_serve_connections_refused_total 102
# TYPE gmx_serve_accept_failures counter
gmx_serve_accept_failures_total 103
# TYPE gmx_serve_protocol_errors counter
gmx_serve_protocol_errors_total 104
# TYPE gmx_serve_frames_in counter
gmx_serve_frames_in_total 105
# TYPE gmx_serve_frames_out counter
gmx_serve_frames_out_total 106
# TYPE gmx_serve_bytes_in counter
gmx_serve_bytes_in_total 107
# TYPE gmx_serve_bytes_out counter
gmx_serve_bytes_out_total 108
# TYPE gmx_serve_requests counter
gmx_serve_requests_total 109
# TYPE gmx_serve_responses_ok counter
gmx_serve_responses_ok_total 110
# TYPE gmx_serve_responses_failed counter
gmx_serve_responses_failed_total 111
# TYPE gmx_serve_quota_throttled counter
gmx_serve_quota_throttled_total 112
# TYPE gmx_serve_shed counter
gmx_serve_shed_total{priority="low"} 129
gmx_serve_shed_total{priority="normal"} 130
gmx_serve_shed_total{priority="high"} 131
# TYPE gmx_serve_pending gauge
gmx_serve_pending 113
# TYPE gmx_serve_pending_peak gauge
gmx_serve_pending_peak 9876543210
# TYPE gmx_serve_cache_hits counter
gmx_serve_cache_hits_total 114
# TYPE gmx_serve_cache_coalesced counter
gmx_serve_cache_coalesced_total 115
# TYPE gmx_serve_cache_misses counter
gmx_serve_cache_misses_total 116
# TYPE gmx_serve_cache_evictions counter
gmx_serve_cache_evictions_total 117
# TYPE gmx_serve_cache_invalidated counter
gmx_serve_cache_invalidated_total 118
# TYPE gmx_serve_cache_drained counter
gmx_serve_cache_drained_total 119
# TYPE gmx_serve_cache_entries gauge
gmx_serve_cache_entries 120
# TYPE gmx_serve_cache_hit_rate gauge
gmx_serve_cache_hit_rate 0.663768116
# TYPE gmx_serve_deadline_requests counter
gmx_serve_deadline_requests_total 121
# TYPE gmx_serve_deadline_refused counter
gmx_serve_deadline_refused_total 122
# TYPE gmx_serve_deadline_budget_us counter
gmx_serve_deadline_budget_us_total 123
# TYPE gmx_serve_deadline_queue_spent_us counter
gmx_serve_deadline_queue_spent_us_total 124
# TYPE gmx_serve_breaker_opens counter
gmx_serve_breaker_opens_total 125
# TYPE gmx_serve_breaker_rejected counter
gmx_serve_breaker_rejected_total 126
# TYPE gmx_serve_brownout_shed counter
gmx_serve_brownout_shed_total{priority="low"} 132
gmx_serve_brownout_shed_total{priority="normal"} 133
gmx_serve_brownout_shed_total{priority="high"} 134
# TYPE gmx_serve_brownout_level gauge
gmx_serve_brownout_level 2
# TYPE gmx_serve_queue_wait_ewma_us gauge
gmx_serve_queue_wait_ewma_us 127
# TYPE gmx_serve_watchdog_kills counter
gmx_serve_watchdog_kills_total 128
# TYPE gmx_serve_shard_routed counter
gmx_serve_shard_routed_total{shard="0"} 135
gmx_serve_shard_routed_total{shard="1"} 142
# TYPE gmx_serve_shard_outstanding gauge
gmx_serve_shard_outstanding{shard="0"} 136
gmx_serve_shard_outstanding{shard="1"} 143
# TYPE gmx_serve_shard_outstanding_bytes gauge
gmx_serve_shard_outstanding_bytes{shard="0"} 137
gmx_serve_shard_outstanding_bytes{shard="1"} 144
# TYPE gmx_serve_shard_breaker_state gauge
gmx_serve_shard_breaker_state{shard="0"} 1
gmx_serve_shard_breaker_state{shard="1"} 2
# TYPE gmx_serve_shard_breaker_opens counter
gmx_serve_shard_breaker_opens_total{shard="0"} 138
gmx_serve_shard_breaker_opens_total{shard="1"} 145
# TYPE gmx_serve_shard_breaker_probes counter
gmx_serve_shard_breaker_probes_total{shard="0"} 139
gmx_serve_shard_breaker_probes_total{shard="1"} 146
# TYPE gmx_serve_client_requests counter
gmx_serve_client_requests_total{client="alpha"} 149
gmx_serve_client_requests_total{client="beta-7"} 154
# TYPE gmx_serve_client_throttled counter
gmx_serve_client_throttled_total{client="alpha"} 150
gmx_serve_client_throttled_total{client="beta-7"} 155
# TYPE gmx_serve_client_shed counter
gmx_serve_client_shed_total{client="alpha"} 151
gmx_serve_client_shed_total{client="beta-7"} 156
# TYPE gmx_serve_client_completed counter
gmx_serve_client_completed_total{client="alpha"} 152
gmx_serve_client_completed_total{client="beta-7"} 157
# TYPE gmx_serve_client_failed counter
gmx_serve_client_failed_total{client="alpha"} 153
gmx_serve_client_failed_total{client="beta-7"} 158
)om";

TEST(ServeMetrics, GoldenSnapshotRendersArePinned)
{
    const ServeSnapshot snap = goldenServeSnapshot();
    EXPECT_EQ(snap.toJson(), kGoldenServeJson);
    const std::string text = renderServeOpenMetrics(snap);
    EXPECT_EQ(text.find("# EOF"), std::string::npos);
    EXPECT_EQ(test::familyBlocks(text),
              test::familyBlocks(kGoldenServeOpenMetrics));
}

TEST(ServeMetrics, AnyClientIdIsOneValidDistinctLabel)
{
    // A client id is up to 256 arbitrary bytes from the Hello frame.
    // OpenMetrics label values allow only the escapes \\ \" \n, and
    // both documents must stay printable ASCII (hence valid UTF-8).
    ServeMetrics m;
    const std::string ids[] = {"a\tb", "a%09b", "b\\s",
                               "n\nl", "p%c",   "q\"q",  "x\xff"};
    for (const std::string &id : ids)
        m.noteClient(id, ServeMetrics::ClientEvent::Request);
    const ServeSnapshot snap = m.snapshot();
    const std::string text = renderServeOpenMetrics(snap);
    const std::string json = snap.toJson();

    const char *const labels[] = {"a%09b", "a%2509b", "b\\\\s", "n%0Al",
                                  "p%25c", "q\\\"q",   "x%FF"};
    for (const char *label : labels) {
        EXPECT_NE(text.find("gmx_serve_client_requests_total{client=\"" +
                            std::string(label) + "\"} 1\n"),
                  std::string::npos)
            << label;
        EXPECT_NE(json.find("{\"id\":\"" + std::string(label) + "\","),
                  std::string::npos)
            << label;
    }
    for (const std::string *doc : {&text, &json})
        for (const char c : *doc)
            EXPECT_TRUE((c >= 0x20 && c <= 0x7e) || c == '\n')
                << "byte 0x" << std::hex
                << static_cast<unsigned>(static_cast<unsigned char>(c));
}

} // namespace
} // namespace gmx::serve

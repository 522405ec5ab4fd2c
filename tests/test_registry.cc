/**
 * @file
 * Registry-driven kernel equivalence suite.
 *
 * Because every kernel is reached through its AlignerDescriptor, this
 * suite is the "adding a kernel" checklist in executable form: register
 * a descriptor and it is automatically held to the reference semantics —
 * exact kernels must reproduce nwAlign's distance on a random plus
 * adversarial corpus, traceback results must verify as valid paths of
 * the reported cost, and kernels sharing a cigar_contract must produce
 * bit-identical CIGARs.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "align/batch.hh"
#include "align/nw.hh"
#include "align/verify.hh"
#include "common/logging.hh"
#include "engine/engine.hh"
#include "kernel/registry.hh"
#include "sequence/generator.hh"

namespace gmx::kernel {
namespace {

/** Random pairs across the regimes plus adversarial shapes. */
std::vector<seq::SequencePair>
corpus()
{
    std::vector<seq::SequencePair> pairs;
    seq::Generator gen(20240817);
    // Lengths straddle the 64-bit word boundaries (64/65, 128/129) and
    // the 256-bit SIMD granule boundary (256/257) so every kernel's
    // block-chaining seams are exercised.
    for (double err : {0.0, 0.01, 0.1, 0.3})
        for (size_t len : {1u, 7u, 64u, 65u, 128u, 129u, 256u, 257u, 300u})
            pairs.push_back(gen.pair(len, err));

    auto add = [&pairs](const char *p, const char *t) {
        pairs.push_back({seq::Sequence(p), seq::Sequence(t)});
    };
    add("", "");
    add("", "ACGTACGT");
    add("ACGTACGT", "");
    add("A", "A");
    add("A", "C");
    add("AAAAAAAAAA", "CCCCCCCCCC");         // all-mismatch
    add("A", "AAAAAAAAAAAAAAAAAAAAAAAAAAAA"); // extreme skew
    add("ACACACACACACACAC", "CACACACACACACACA"); // shifted repeat
    add("AAAAAAAACCCCCCCC", "AAAACCCC");     // homopolymer blocks
    // 200:1 skew exercises banded envelopes wider than one sequence.
    pairs.push_back({gen.random(1), gen.random(200)});
    pairs.push_back({gen.random(200), gen.random(1)});
    return pairs;
}

TEST(Registry, BuiltinsArePresentAndLookupsWork)
{
    const auto &reg = AlignerRegistry::instance();
    EXPECT_GE(reg.all().size(), 8u);
    for (const char *name :
         {"nw", "hirschberg", "bpm", "bpm-banded", "bitap", "gmx-full",
          "gmx-banded", "gmx-windowed"}) {
        const AlignerDescriptor *d = reg.find(name);
        ASSERT_NE(d, nullptr) << name;
        EXPECT_STREQ(d->name, name);
        EXPECT_NE(d->run, nullptr);
        EXPECT_NE(d->scratch_bytes, nullptr);
        EXPECT_GT(d->scratch_bytes(300, 300, {}), 0u);
    }
    EXPECT_EQ(reg.find("no-such-kernel"), nullptr);
    EXPECT_THROW(reg.require("no-such-kernel"), FatalError);
}

TEST(Registry, ExactKernelsReproduceNwDistanceOverCorpus)
{
    const auto &reg = AlignerRegistry::instance();
    for (const auto &pair : corpus()) {
        const auto expect = align::nwAlign(pair.pattern, pair.text);
        for (const AlignerDescriptor *d : reg.tracebackCapable()) {
            KernelContext ctx;
            KernelParams params; // k = -1: banded kernels find k themselves
            const auto res = d->run(pair, params, ctx);
            ASSERT_TRUE(res.found())
                << d->name << " n=" << pair.pattern.size()
                << " m=" << pair.text.size();
            if (d->exact) {
                EXPECT_EQ(res.distance, expect.distance)
                    << d->name << " n=" << pair.pattern.size()
                    << " m=" << pair.text.size();
            } else {
                // Heuristics may overshoot but never beat the optimum.
                EXPECT_GE(res.distance, expect.distance) << d->name;
            }
            ASSERT_TRUE(res.has_cigar) << d->name;
            const auto v =
                align::verifyResult(pair.pattern, pair.text, res);
            EXPECT_TRUE(v.ok) << d->name << ": " << v.error;
        }
    }
}

TEST(Registry, SharedCigarContractsProduceIdenticalCigars)
{
    const auto &reg = AlignerRegistry::instance();
    std::map<std::string, std::vector<const AlignerDescriptor *>> groups;
    for (const AlignerDescriptor &d : reg.all())
        if (d.cigar_contract && d.supports_traceback)
            groups[d.cigar_contract].push_back(&d);
    // The GMX tile-traceback contract must bind at least full + banded.
    ASSERT_GE(groups["gmx-tb"].size(), 2u);

    for (const auto &pair : corpus()) {
        for (const auto &[contract, members] : groups) {
            if (members.size() < 2)
                continue;
            std::string reference;
            for (size_t i = 0; i < members.size(); ++i) {
                KernelContext ctx;
                const auto res = members[i]->run(pair, {}, ctx);
                ASSERT_TRUE(res.found() && res.has_cigar)
                    << members[i]->name;
                if (i == 0)
                    reference = res.cigar.str();
                else
                    EXPECT_EQ(res.cigar.str(), reference)
                        << contract << ": " << members[i]->name << " vs "
                        << members[0]->name
                        << " n=" << pair.pattern.size()
                        << " m=" << pair.text.size();
            }
        }
    }
}

TEST(Registry, ExplicitBandHonoursEnforceBound)
{
    // Banded kernels with an explicit k and enforce_bound must report
    // kNoAlignment when the true distance exceeds the budget.
    const auto &reg = AlignerRegistry::instance();
    seq::SequencePair far{seq::Sequence("AAAAAAAAAAAAAAAA"),
                          seq::Sequence("CCCCCCCCCCCCCCCC")};
    for (const AlignerDescriptor &d : reg.all()) {
        if (!d.banded)
            continue;
        KernelContext ctx;
        KernelParams params;
        params.k = 2; // true distance is 16
        params.enforce_bound = true;
        const auto res = d.run(far, params, ctx);
        EXPECT_FALSE(res.found()) << d.name;
    }
}

TEST(Registry, MakeAlignerRunsThroughEngine)
{
    seq::Generator gen(515);
    std::vector<seq::SequencePair> pairs;
    for (int i = 0; i < 64; ++i)
        pairs.push_back(gen.pair(120, 0.05));

    engine::EngineConfig cfg;
    cfg.workers = 4;
    engine::Engine eng(cfg);
    std::vector<std::future<engine::Engine::AlignOutcome>> futures;
    for (const auto &pair : pairs)
        futures.push_back(eng.submit(pair, makeAligner("gmx-full")));
    for (size_t i = 0; i < pairs.size(); ++i) {
        const auto res = futures[i].get();
        ASSERT_TRUE(res.ok()) << res.status().toString();
        EXPECT_EQ(res->distance,
                  align::nwDistance(pairs[i].pattern, pairs[i].text));
        EXPECT_TRUE(
            align::verifyResult(pairs[i].pattern, pairs[i].text, *res).ok);
    }

    // Distance-only parameters flow through to the descriptor.
    KernelParams dist_only;
    dist_only.want_cigar = false;
    const auto d = makeAligner("bpm", dist_only)(pairs[0]);
    EXPECT_EQ(d.distance,
              align::nwDistance(pairs[0].pattern, pairs[0].text));
    EXPECT_FALSE(d.has_cigar);

    EXPECT_THROW(makeAligner("definitely-not-registered"), FatalError);
}

} // namespace
} // namespace gmx::kernel

/**
 * @file
 * Runtime SIMD gate tests: the GMX_FORCE_SCALAR test seam, the identity
 * name resolution the serving benchmark still calls, and end-to-end
 * bit-identity of the cascade under both overrides.
 */

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "engine/cascade.hh"
#include "kernel/dispatch.hh"
#include "kernel/registry.hh"
#include "kernel/simd/bpm_simd.hh"
#include "sequence/generator.hh"

namespace gmx::kernel {
namespace {

/** RAII guard so a failing assertion can't leak the test override. */
struct ForceScalarGuard
{
    explicit ForceScalarGuard(int force) { setForceScalarForTest(force); }
    ~ForceScalarGuard() { setForceScalarForTest(-1); }
};

TEST(Dispatch, DispatchedNamesAlwaysResolveInRegistry)
{
    // The registry holds scalar kernels only, so resolution is the
    // identity under both overrides and never names a missing kernel.
    const auto &reg = AlignerRegistry::instance();
    for (const int force : {0, 1}) {
        ForceScalarGuard guard(force);
        for (const AlignerDescriptor &d : reg.all()) {
            EXPECT_EQ(std::string_view(d.name).find("avx2"),
                      std::string_view::npos)
                << d.name;
            EXPECT_EQ(dispatchKernel(d.name), std::string_view(d.name))
                << "force=" << force;
        }
    }
}

TEST(Dispatch, DistanceOnlyFullTierRunsBpmUnderBothOverrides)
{
    // A bitap miss with no band doublings goes straight to the full
    // tier, which answers a distance-only request with scalar "bpm" on
    // every host: same distance and attempt cells whether or not the
    // SIMD gate is open, and the same cells as calling "bpm" directly.
    seq::Generator gen(20261019);
    const seq::SequencePair pair = gen.pair(300, 0.3);
    engine::CascadeConfig config;
    config.band_doublings = 0;
    EXPECT_STREQ(engine::fullTierKernel(config, false).name, "bpm");
    EXPECT_STREQ(engine::fullTierKernel(config, true).name, "gmx-full");

    KernelCounts direct;
    KernelContext ctx(CancelToken{}, &direct);
    const auto bpm = AlignerRegistry::instance().require("bpm").run(
        pair, KernelParams{.want_cigar = false}, ctx);

    std::vector<engine::CascadeOutcome> outs;
    for (const int force : {1, 0}) {
        ForceScalarGuard guard(force);
        outs.push_back(engine::cascadeAlign(pair, config, false));
        const engine::CascadeOutcome &o = outs.back();
        ASSERT_EQ(o.attempts.size(), 2u) << "force=" << force;
        EXPECT_EQ(o.attempts[0].tier, engine::Tier::Filter);
        EXPECT_EQ(o.tier, engine::Tier::Full);
        EXPECT_TRUE(o.attempts[1].answered);
        EXPECT_EQ(o.result.distance, bpm.distance) << "force=" << force;
        EXPECT_EQ(o.attempts[1].cells, direct.cells) << "force=" << force;
    }
    EXPECT_EQ(outs[0].counts.cells, outs[1].counts.cells);
}

TEST(Dispatch, CascadeIsBitIdenticalUnderForcedScalar)
{
    // The acceptance property: GMX_FORCE_SCALAR=1 must be invisible in
    // results — same distances, byte-identical CIGARs — across pairs
    // that exercise all three tiers.
    seq::Generator gen(20250807);
    std::vector<seq::SequencePair> pairs;
    for (double err : {0.01, 0.1, 0.4})
        for (size_t len : {40u, 150u, 300u, 800u})
            pairs.push_back(gen.pair(len, err));

    engine::CascadeConfig config;
    for (const auto &pair : pairs) {
        for (const bool want_cigar : {false, true}) {
            setForceScalarForTest(0);
            const auto dispatched =
                engine::cascadeAlign(pair, config, want_cigar);
            setForceScalarForTest(1);
            const auto scalar =
                engine::cascadeAlign(pair, config, want_cigar);
            setForceScalarForTest(-1);
            EXPECT_EQ(dispatched.result.distance, scalar.result.distance)
                << "n=" << pair.pattern.size();
            ASSERT_EQ(dispatched.result.has_cigar, scalar.result.has_cigar);
            if (scalar.result.has_cigar) {
                EXPECT_EQ(dispatched.result.cigar.str(),
                          scalar.result.cigar.str())
                    << "n=" << pair.pattern.size();
            }
        }
    }
}

TEST(Dispatch, ReportsConsistentCapabilityBits)
{
    // simdDispatchEnabled() is the conjunction of its three inputs.
    ForceScalarGuard guard(-1);
    const bool expect = simd::builtWithAvx2() && cpuHasAvx2() &&
                        !forceScalar();
    EXPECT_EQ(simdDispatchEnabled(), expect);
}

} // namespace
} // namespace gmx::kernel

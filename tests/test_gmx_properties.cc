/**
 * @file
 * Metamorphic and cross-configuration property tests for the GMX
 * aligners: invariances that must hold for any correct edit-distance
 * implementation, swept over tile sizes and error regimes.
 */

#include <gtest/gtest.h>

#include "align/nw.hh"
#include "align/verify.hh"
#include "gmx/banded.hh"
#include "gmx/full.hh"
#include "gmx/windowed.hh"
#include "sequence/generator.hh"
#include "test_util.hh"

namespace gmx::core {
namespace {

using seq::Sequence;

struct PropParams
{
    unsigned tile;
    // Explicit zeroed padding. gtest prints a parameter's raw bytes into
    // the listed test name, so implicit padding after `tile` would leak
    // uninitialised memory and rename the tests on every discovery run.
    unsigned zeroPad;
    size_t length;
    double error;
    u64 seed;
};

std::string
propName(const PropParams &p)
{
    return "T" + std::to_string(p.tile) + "_len" +
           std::to_string(p.length) + "_err" +
           std::to_string(static_cast<int>(p.error * 100));
}

std::vector<PropParams>
propGrid()
{
    std::vector<PropParams> grid;
    for (unsigned tile : {8u, 32u, 64u}) {
        for (size_t len : {50u, 200u, 500u}) {
            for (double err : {0.02, 0.15}) {
                grid.push_back({tile, 0, len, err,
                                9000 + tile + len +
                                    static_cast<u64>(err * 100)});
            }
        }
    }
    return grid;
}

class GmxPropertyTest : public ::testing::TestWithParam<PropParams>
{
  protected:
    seq::SequencePair
    pair() const
    {
        seq::Generator gen(GetParam().seed);
        return gen.pair(GetParam().length, GetParam().error);
    }
};

TEST_P(GmxPropertyTest, SymmetryOfDistance)
{
    // Edit distance is symmetric; swapping pattern and text transposes
    // the matrix but must not change the distance.
    const auto p = pair();
    EXPECT_EQ(fullGmxDistance(p.pattern, p.text, GetParam().tile),
              fullGmxDistance(p.text, p.pattern, GetParam().tile));
}

TEST_P(GmxPropertyTest, ReverseInvariance)
{
    // d(reverse(a), reverse(b)) == d(a, b).
    const auto p = pair();
    const Sequence rp(std::string(p.pattern.str().rbegin(),
                                  p.pattern.str().rend()));
    const Sequence rt(std::string(p.text.str().rbegin(),
                                  p.text.str().rend()));
    EXPECT_EQ(fullGmxDistance(rp, rt, GetParam().tile),
              fullGmxDistance(p.pattern, p.text, GetParam().tile));
}

TEST_P(GmxPropertyTest, ReverseComplementInvariance)
{
    // Watson-Crick: d(rc(a), rc(b)) == d(a, b).
    const auto p = pair();
    EXPECT_EQ(fullGmxDistance(p.pattern.reverseComplement(),
                              p.text.reverseComplement(),
                              GetParam().tile),
              fullGmxDistance(p.pattern, p.text, GetParam().tile));
}

TEST_P(GmxPropertyTest, ConcatenationSubadditivity)
{
    // d(a1+a2, b1+b2) <= d(a1, b1) + d(a2, b2).
    seq::Generator gen(GetParam().seed + 1);
    const auto p1 = gen.pair(GetParam().length / 2, GetParam().error);
    const auto p2 = gen.pair(GetParam().length / 2, GetParam().error);
    const Sequence cat_p(p1.pattern.str() + p2.pattern.str());
    const Sequence cat_t(p1.text.str() + p2.text.str());
    const unsigned t = GetParam().tile;
    EXPECT_LE(fullGmxDistance(cat_p, cat_t, t),
              fullGmxDistance(p1.pattern, p1.text, t) +
                  fullGmxDistance(p2.pattern, p2.text, t));
}

TEST_P(GmxPropertyTest, SelfDistanceIsZero)
{
    const auto p = pair();
    EXPECT_EQ(fullGmxDistance(p.text, p.text, GetParam().tile), 0);
    const auto res = fullGmxAlign(p.text, p.text, GetParam().tile);
    EXPECT_EQ(res.cigar.editDistance(), 0u);
}

TEST_P(GmxPropertyTest, SingleEditCostsOne)
{
    const auto p = pair();
    if (p.text.size() < 3)
        return;
    // Substitute one base in the middle.
    std::string s = p.text.str();
    const size_t pos = s.size() / 2;
    s[pos] = s[pos] == 'A' ? 'C' : 'A';
    EXPECT_EQ(fullGmxDistance(Sequence(s), p.text, GetParam().tile), 1);
    // Delete one base.
    std::string d = p.text.str();
    d.erase(pos, 1);
    EXPECT_EQ(fullGmxDistance(Sequence(d), p.text, GetParam().tile), 1);
}

TEST_P(GmxPropertyTest, AllThreeAlignersAgreeWithReference)
{
    const auto p = pair();
    const i64 expect = align::nwDistance(p.pattern, p.text);
    const unsigned t = GetParam().tile;
    EXPECT_EQ(fullGmxDistance(p.pattern, p.text, t), expect);
    EXPECT_EQ(bandedGmxAuto(p.pattern, p.text, false, 64, t).distance,
              expect);
    const auto win = windowedGmxAlign(p.pattern, p.text, t,
                                      {3 * static_cast<size_t>(t),
                                       static_cast<size_t>(t)});
    EXPECT_GE(win.distance, expect);
    EXPECT_TRUE(align::verifyResult(p.pattern, p.text, win).ok);
}

TEST_P(GmxPropertyTest, TracebackDistanceMatchesScoreOnly)
{
    const auto p = pair();
    const unsigned t = GetParam().tile;
    const auto res = fullGmxAlign(p.pattern, p.text, t);
    EXPECT_EQ(res.distance, fullGmxDistance(p.pattern, p.text, t));
    const auto check = align::verifyResult(p.pattern, p.text, res);
    EXPECT_TRUE(check.ok) << check.error;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GmxPropertyTest, ::testing::ValuesIn(propGrid()),
    [](const auto &info) { return propName(info.param); });

} // namespace
} // namespace gmx::core

/**
 * @file
 * Unit tests for the common substrate: bit vectors, PRNG, SipHash,
 * stats, tables, logging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bitvector.hh"
#include "common/logging.hh"
#include "common/prng.hh"
#include "common/siphash.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace gmx {
namespace {

TEST(BitVector, StartsCleared)
{
    BitVector bv(130);
    EXPECT_EQ(bv.size(), 130u);
    EXPECT_EQ(bv.numWords(), 3u);
    EXPECT_EQ(bv.count(), 0u);
    for (size_t i = 0; i < bv.size(); ++i)
        EXPECT_FALSE(bv.get(i));
}

TEST(BitVector, SetAndGetAcrossWordBoundaries)
{
    BitVector bv(200);
    for (size_t i : {0u, 63u, 64u, 127u, 128u, 199u})
        bv.set(i);
    EXPECT_EQ(bv.count(), 6u);
    EXPECT_TRUE(bv.get(63));
    EXPECT_TRUE(bv.get(64));
    EXPECT_FALSE(bv.get(65));
    bv.set(64, false);
    EXPECT_FALSE(bv.get(64));
    EXPECT_EQ(bv.count(), 5u);
}

TEST(BitVector, FillRespectsTailBits)
{
    BitVector bv(70, true);
    EXPECT_EQ(bv.count(), 70u);
    // The last word must not carry garbage above bit 5.
    EXPECT_EQ(bv.word(1), (u64{1} << 6) - 1);
    bv.clear();
    EXPECT_EQ(bv.count(), 0u);
    bv.fill();
    EXPECT_EQ(bv.count(), 70u);
}

TEST(BitVector, WordsForMatchesCeilDivision)
{
    EXPECT_EQ(BitVector::wordsFor(0), 0u);
    EXPECT_EQ(BitVector::wordsFor(1), 1u);
    EXPECT_EQ(BitVector::wordsFor(64), 1u);
    EXPECT_EQ(BitVector::wordsFor(65), 2u);
    EXPECT_EQ(BitVector::wordsFor(128), 2u);
}

TEST(BitVector, Equality)
{
    BitVector a(100), b(100);
    EXPECT_EQ(a, b);
    a.set(42);
    EXPECT_FALSE(a == b);
    b.set(42);
    EXPECT_EQ(a, b);
}

TEST(Prng, DeterministicForSameSeed)
{
    Prng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiverge)
{
    Prng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Prng, BelowRespectsBound)
{
    Prng rng(7);
    std::set<u64> seen;
    for (int i = 0; i < 4000; ++i) {
        const u64 v = rng.below(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u); // all values hit
}

TEST(Prng, UniformInUnitInterval)
{
    Prng rng(99);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

/** SipHash-2-4-128 of the bytes 0, 1, ..., len-1 under key 00..0f. */
Digest128
sipReference(size_t len, size_t chunk)
{
    unsigned char msg[64];
    for (size_t i = 0; i < sizeof msg; ++i)
        msg[i] = static_cast<unsigned char>(i);
    SipHash128 h(0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL);
    for (size_t at = 0; at < len; at += chunk)
        h.update(msg + at, std::min(chunk, len - at));
    return h.finish();
}

TEST(SipHash, MatchesTheReferenceVectors)
{
    // vectors_sip128 from the SipHash reference implementation, read as
    // two little-endian words.
    EXPECT_EQ(sipReference(0, 1),
              (Digest128{0xe6a825ba047f81a3ULL, 0x930255c71472f66dULL}));
    EXPECT_EQ(sipReference(1, 1),
              (Digest128{0x44af996bd8c187daULL, 0x45fc229b11597634ULL}));
    EXPECT_EQ(sipReference(63, 63),
              (Digest128{0x4a83502f77d15051ULL, 0x7cbd3f979a063e50ULL}));
}

TEST(SipHash, DigestIgnoresHowTheMessageIsSplit)
{
    for (size_t len : {7u, 8u, 15u, 40u, 63u}) {
        const Digest128 whole = sipReference(len, len);
        for (size_t chunk : {1u, 3u, 8u, 13u})
            EXPECT_EQ(sipReference(len, chunk), whole)
                << "len " << len << " chunk " << chunk;
    }
}

TEST(SipHash, WordsAreFedLittleEndian)
{
    SipHash128 a(1, 2), b(1, 2);
    a.updateWord(0x0706050403020100ULL);
    const unsigned char bytes[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    b.update(bytes, sizeof bytes);
    EXPECT_EQ(a.finish(), b.finish());
}

TEST(RunningStats, BasicMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.001); // sample stddev
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(GeoMean, MatchesHandComputedValue)
{
    GeoMean g;
    g.add(2.0);
    g.add(8.0);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "2.50"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 2.50  |"), std::string::npos);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(1234567LL), "1,234,567");
    EXPECT_EQ(TextTable::num(-42LL), "-42");
    EXPECT_EQ(TextTable::num(0LL), "0");
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(GMX_FATAL("bad input %d", 42), FatalError);
    try {
        GMX_FATAL("bad input %d", 42);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad input 42");
    }
}

TEST(Logging, FormatHandlesLongStrings)
{
    const std::string long_str(500, 'x');
    try {
        GMX_FATAL("%s", long_str.c_str());
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()).size(), 500u);
    }
}

} // namespace
} // namespace gmx

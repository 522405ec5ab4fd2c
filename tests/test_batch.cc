/**
 * @file
 * Tests for pair validation (align::validatePair) and the matrix view
 * helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "align/batch.hh"
#include "align/matrix_view.hh"
#include "align/nw.hh"
#include "common/status.hh"
#include "sequence/generator.hh"

namespace gmx::align {
namespace {

TEST(Validation, RejectsEmptySequences)
{
    InputLimits limits;
    const seq::SequencePair empty_p{seq::Sequence(""), seq::Sequence("ACGT")};
    const seq::SequencePair empty_t{seq::Sequence("ACGT"), seq::Sequence("")};
    EXPECT_EQ(validatePair(empty_p, limits).code(),
              StatusCode::InvalidInput);
    EXPECT_EQ(validatePair(empty_t, limits).code(),
              StatusCode::InvalidInput);
    limits.reject_empty = false;
    EXPECT_TRUE(validatePair(empty_p, limits).ok());
}

TEST(Validation, RejectsNonAcgtOnlyWhenConfigured)
{
    const seq::SequencePair dirty{seq::Sequence("ACGTNACGT"),
                                  seq::Sequence("ACGT")};
    InputLimits lax;
    EXPECT_TRUE(validatePair(dirty, lax).ok());
    InputLimits strict;
    strict.reject_non_acgt = true;
    EXPECT_EQ(validatePair(dirty, strict).code(), StatusCode::InvalidInput);
    // Lower-case ACGT is case folding, not corruption.
    const seq::SequencePair lower{seq::Sequence("acgt"),
                                  seq::Sequence("ACGT")};
    EXPECT_TRUE(validatePair(lower, strict).ok());
}

TEST(Validation, RejectsOversizedAndSkewedPairs)
{
    seq::Generator gen(2029);
    InputLimits limits;
    limits.max_pair_bases = 100;
    EXPECT_EQ(validatePair(gen.pair(80, 0.0), limits).code(),
              StatusCode::InvalidInput);
    EXPECT_TRUE(validatePair(gen.pair(40, 0.0), limits).ok());

    InputLimits skew;
    skew.max_length_skew = 5;
    const auto text = gen.random(60);
    const seq::SequencePair skewed{text.substr(0, 30), text};
    EXPECT_EQ(validatePair(skewed, skew).code(), StatusCode::InvalidInput);
}

TEST(MatrixView, RendersPaperFigure1)
{
    const seq::Sequence p("GATT"), t("GCAT");
    const auto res = nwAlign(p, t);
    const std::string view = renderDpMatrix(p, t, &res.cigar);
    // The matrix contains the known corner value and path markers.
    EXPECT_NE(view.find("2*"), std::string::npos);
    EXPECT_NE(view.find("G"), std::string::npos);
    // 5 rows of cells + header.
    EXPECT_EQ(static_cast<size_t>(
                  std::count(view.begin(), view.end(), '\n')),
              6u);
}

TEST(MatrixView, DeltaMatrixUsesBpmAlphabet)
{
    const seq::Sequence p("GATT"), t("GCAT");
    const std::string dv = renderDeltaMatrix(p, t, true);
    const std::string dh = renderDeltaMatrix(p, t, false);
    for (char c : {'+', '-'}) {
        EXPECT_NE(dv.find(c), std::string::npos);
        EXPECT_NE(dh.find(c), std::string::npos);
    }
    // Column 0 of dv is always '+' (D[i][0] = i).
    EXPECT_NE(dv.find("G    +"), std::string::npos);
}

} // namespace
} // namespace gmx::align

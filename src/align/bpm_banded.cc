#include "align/bpm_banded.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>

#include "common/logging.hh"
#include "sequence/alphabet.hh"

namespace gmx::align {

namespace {

constexpr i64 kInvalid = std::numeric_limits<i64>::max() / 4;

/** Per-column band snapshot kept for the traceback. */
struct BpmBandColumn
{
    size_t bf; //!< first band block index
    i64 vtop;  //!< D[bf*64][j] after processing the column
};

/**
 * Traceback over a banded Pv/Mv history: W words per column plus a
 * BpmBandColumn per column.
 */
AlignResult
bpmBandedTracebackFromHistory(const seq::Sequence &pattern,
                              const seq::Sequence &text, size_t W,
                              std::span<const u64> hist_pv,
                              std::span<const u64> hist_mv,
                              std::span<const BpmBandColumn> hist_col,
                              i64 distance, KernelContext &ctx)
{
    const size_t n = pattern.size();
    const size_t m = text.size();
    AlignResult res;
    res.distance = distance;
    res.has_cigar = true;

    // Reconstruct the valid rows of a column: rows [bf*64, min(n, bf*64 +
    // W*64)] with values from vtop + delta prefix sums.
    struct Col
    {
        size_t row_lo = 0;     // first row with a valid value
        size_t row_hi = 0;     // last row with a valid value
        std::span<i64> values; // indexed by absolute row
    };
    auto reconstruct = [&](size_t j, Col &col) {
        std::fill(col.values.begin(), col.values.end(), kInvalid);
        if (j == 0) {
            col.row_lo = 0;
            col.row_hi = n;
            for (size_t i = 0; i <= n; ++i)
                col.values[i] = static_cast<i64>(i);
            return;
        }
        const BpmBandColumn &rec = hist_col[j - 1];
        col.row_lo = rec.bf * 64;
        col.row_hi = std::min(n, rec.bf * 64 + W * 64);
        col.values[col.row_lo] = rec.vtop;
        const u64 *pv = &hist_pv[(j - 1) * W];
        const u64 *mv = &hist_mv[(j - 1) * W];
        for (size_t i = col.row_lo + 1; i <= col.row_hi; ++i) {
            const size_t bit_index = i - 1 - rec.bf * 64;
            const size_t w = bit_index >> 6;
            const u64 bit = u64{1} << (bit_index & 63);
            i64 dv = 0;
            if (pv[w] & bit)
                dv = 1;
            else if (mv[w] & bit)
                dv = -1;
            col.values[i] = col.values[i - 1] + dv;
        }
    };

    Col col_j{0, 0, ctx.arena().rowsUninit<i64>(n + 1)};
    Col col_prev{0, 0, ctx.arena().rowsUninit<i64>(n + 1)};
    reconstruct(m, col_j);
    GMX_ASSERT(col_j.values[n] == res.distance);

    std::vector<Op> ops;
    ops.reserve(n + m);
    size_t i = n, j = m;
    bool have_prev = false;
    auto val = [&](const Col &c, size_t row) {
        return (row >= c.row_lo && row <= c.row_hi) ? c.values[row]
                                                    : kInvalid;
    };
    while (i > 0 || j > 0) {
        ctx.poll();
        if (j == 0) {
            ops.push_back(Op::Insertion);
            --i;
            continue;
        }
        if (i == 0) {
            ops.push_back(Op::Deletion);
            --j;
            continue;
        }
        if (!have_prev) {
            reconstruct(j - 1, col_prev);
            have_prev = true;
        }
        const i64 here = val(col_j, i);
        GMX_ASSERT(here != kInvalid);
        const bool eq = pattern.at(i - 1) == text.at(j - 1);
        if (eq && val(col_prev, i - 1) == here) {
            ops.push_back(Op::Match);
            --i;
            --j;
            std::swap(col_j, col_prev);
            have_prev = false;
        } else if (val(col_prev, i) != kInvalid &&
                   val(col_prev, i) + 1 == here) {
            ops.push_back(Op::Deletion);
            --j;
            std::swap(col_j, col_prev);
            have_prev = false;
        } else if (val(col_j, i - 1) != kInvalid &&
                   val(col_j, i - 1) + 1 == here) {
            ops.push_back(Op::Insertion);
            --i;
        } else if (val(col_prev, i - 1) != kInvalid &&
                   val(col_prev, i - 1) + 1 == here) {
            ops.push_back(Op::Mismatch);
            --i;
            --j;
            std::swap(col_j, col_prev);
            have_prev = false;
        } else {
            GMX_PANIC("banded BPM traceback left the band at (%zu, %zu)",
                      i, j);
        }
    }
    std::reverse(ops.begin(), ops.end());
    res.cigar = Cigar(std::move(ops));
    return res;
}

} // namespace

AlignResult
bpmBandedAlign(const seq::Sequence &pattern, const seq::Sequence &text,
               i64 k, bool want_cigar, KernelContext &ctx)
{
    const size_t n = pattern.size();
    const size_t m = text.size();
    AlignResult res;

    if (k < 0)
        GMX_FATAL("bpmBandedAlign: negative error bound %lld",
                  static_cast<long long>(k));
    if (static_cast<i64>(n > m ? n - m : m - n) > k)
        return res; // |n - m| alone exceeds the bound

    if (n == 0 || m == 0) {
        res.distance = static_cast<i64>(n + m);
        if (want_cigar) {
            res.cigar.push(Op::Deletion, m);
            res.cigar.push(Op::Insertion, n);
            res.has_cigar = true;
        }
        return res;
    }

    ctx.beginSetup();
    std::optional<ScratchArena::Frame> frame;
    if (!ctx.peqMemo())
        frame.emplace(ctx.arena());
    const size_t num_blocks = (n + 63) / 64;
    // Per-symbol match masks for every block (precomputed, like Edlib);
    // memoized across k-doubling retries and cascade attempts when the
    // context carries a PeqMemo.
    const std::span<const u64> peq = acquirePeq(pattern, num_blocks, ctx);
    if (!frame)
        frame.emplace(ctx.arena());
    // Band width in blocks: enough rows for k errors on both sides of the
    // diagonal plus two blocks of slack for block-granularity effects.
    const size_t want_rows = static_cast<size_t>(2 * k) +
                             (n > m ? n - m : m - n) + 1;
    const size_t W = std::min(num_blocks, (want_rows + 63) / 64 + 2);

    std::span<BpmBlock> band = ctx.arena().rowsUninit<BpmBlock>(W);
    for (BpmBlock &b : band)
        b = BpmBlock{};
    size_t bf = 0; // first band block
    i64 vtop = 0;  // D[bf*64][j] (row above the band's first row)

    // History for traceback.
    std::span<u64> hist_pv, hist_mv;
    std::span<BpmBandColumn> hist_col;
    if (want_cigar) {
        hist_pv = ctx.arena().rowsUninit<u64>(W * m);
        hist_mv = ctx.arena().rowsUninit<u64>(W * m);
        hist_col = ctx.arena().rowsUninit<BpmBandColumn>(m);
    }

    const size_t bf_max = num_blocks - W;
    KernelCounts *counts = ctx.countsSink();

    ctx.beginKernel();
    for (size_t j = 1; j <= m; ++j) {
        ctx.poll();
        // Band placement: any path with <= k edits satisfies |i - j| <= k,
        // so anchoring the band top at row j - k - 1 (block-rounded down)
        // keeps the whole reachable corridor inside the band; W includes
        // two blocks of slack to absorb the rounding. bf is monotone in j.
        i64 target = (static_cast<i64>(j) - k - 1) / 64;
        target = std::clamp<i64>(target, 0, static_cast<i64>(bf_max));
        // The last column must see the last block so row n is in band.
        if (j == m)
            target = static_cast<i64>(bf_max);
        while (bf < static_cast<size_t>(target)) {
            // Drop the top block: fold its vertical deltas into vtop.
            vtop += static_cast<i64>(__builtin_popcountll(band[0].pv)) -
                    static_cast<i64>(__builtin_popcountll(band[0].mv));
            for (size_t w = 0; w + 1 < W; ++w)
                band[w] = band[w + 1];
            // New bottom block enters on the Ukkonen envelope (+1 deltas).
            band[W - 1] = BpmBlock();
            ++bf;
            if (counts)
                counts->alu += 8;
        }

        const u8 c = text.code(j - 1);
        const u64 *pe = &peq[size_t{c} * num_blocks];
        int hin = 1; // Ukkonen envelope above the band (exact at row 0)
        for (size_t w = 0; w < W; ++w)
            hin = bpmBlockStep(band[w], pe[bf + w], hin);
        vtop += 1; // the envelope row advances one column: its value is +1

        if (want_cigar) {
            for (size_t w = 0; w < W; ++w) {
                hist_pv[(j - 1) * W + w] = band[w].pv;
                hist_mv[(j - 1) * W + w] = band[w].mv;
            }
            hist_col[j - 1] = {bf, vtop};
        }
        if (counts) {
            // Band maintenance: placement target, vtop bookkeeping, and
            // the per-column loop control around the block kernel.
            counts->alu += kBpmBlockAlu * W + 14;
            counts->loads += W * 3;
            counts->stores += W * (want_cigar ? 4u : 2u);
        }
    }
    if (counts)
        counts->cells += static_cast<u64>(W) * 64 * m;

    // Value at (n, m): vtop + prefix sum of in-band vertical deltas.
    i64 value = vtop;
    for (size_t i = bf * 64; i < n; ++i) {
        const size_t w = (i >> 6) - bf;
        const u64 bit = u64{1} << (i & 63);
        if (band[w].pv & bit)
            ++value;
        else if (band[w].mv & bit)
            --value;
    }
    if (value > k) {
        ctx.donePhases();
        return res; // outside the guaranteed-exact region
    }

    res.distance = value;
    if (!want_cigar) {
        ctx.donePhases();
        return res;
    }

    res = bpmBandedTracebackFromHistory(pattern, text, W, hist_pv, hist_mv,
                                        hist_col, value, ctx);
    ctx.donePhases();
    return res;
}

AlignResult
bpmBandedAlign(const seq::Sequence &pattern, const seq::Sequence &text, i64 k,
               bool want_cigar)
{
    KernelContext ctx;
    return bpmBandedAlign(pattern, text, k, want_cigar, ctx);
}

AlignResult
edlibAlign(const seq::Sequence &pattern, const seq::Sequence &text,
           bool want_cigar, i64 k0, KernelContext &ctx)
{
    const i64 limit =
        static_cast<i64>(std::max(pattern.size(), text.size()));
    i64 k = std::max<i64>(k0, 1);
    while (true) {
        AlignResult res = bpmBandedAlign(pattern, text, k, want_cigar, ctx);
        if (res.found())
            return res;
        if (k >= limit) {
            // k covers the whole matrix; an alignment always exists there.
            GMX_PANIC("edlibAlign failed with full-width band");
        }
        k = std::min(limit, k * 2);
    }
}

AlignResult
edlibAlign(const seq::Sequence &pattern, const seq::Sequence &text,
           bool want_cigar, i64 k0)
{
    KernelContext ctx;
    return edlibAlign(pattern, text, want_cigar, k0, ctx);
}

i64
edlibDistance(const seq::Sequence &pattern, const seq::Sequence &text,
              KernelContext &ctx)
{
    return edlibAlign(pattern, text, /*want_cigar=*/false, 64, ctx).distance;
}

i64
edlibDistance(const seq::Sequence &pattern, const seq::Sequence &text)
{
    KernelContext ctx;
    return edlibDistance(pattern, text, ctx);
}

} // namespace gmx::align

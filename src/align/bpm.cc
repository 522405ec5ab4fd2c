#include "align/bpm.hh"

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "sequence/alphabet.hh"

namespace gmx::align {

std::span<const u64>
acquirePeq(const seq::Sequence &pattern, size_t stride, KernelContext &ctx)
{
    GMX_ASSERT(stride * 64 >= pattern.size(),
               "peq stride too small for pattern");
    PeqMemo *memo = ctx.peqMemo();
    const void *key = static_cast<const void *>(pattern.codes().data());
    if (memo && memo->key == key && memo->n == pattern.size() &&
        memo->stride == stride) {
        ++memo->hits;
        return memo->table;
    }
    std::span<u64> peq = ctx.arena().rows<u64>(seq::kDnaSymbols * stride);
    for (size_t i = 0; i < pattern.size(); ++i)
        peq[pattern.code(i) * stride + (i >> 6)] |= u64{1} << (i & 63);
    if (memo) {
        memo->key = key;
        memo->n = pattern.size();
        memo->stride = stride;
        memo->table = peq;
        ++memo->builds;
    }
    return peq;
}

i64
bpmDistance(const seq::Sequence &pattern, const seq::Sequence &text,
            KernelContext &ctx)
{
    const size_t n = pattern.size();
    const size_t m = text.size();
    if (n == 0)
        return static_cast<i64>(m);
    if (m == 0)
        return static_cast<i64>(n);

    ctx.beginSetup();
    // With a memo the peq table is acquired BEFORE the frame opens so it
    // survives the rewind and the next retry on the same pattern reuses
    // it; without one it lives inside the frame like any other scratch.
    std::optional<ScratchArena::Frame> frame;
    if (!ctx.peqMemo())
        frame.emplace(ctx.arena());
    const size_t num_blocks = (n + 63) / 64;
    const std::span<const u64> peq = acquirePeq(pattern, num_blocks, ctx);
    if (!frame)
        frame.emplace(ctx.arena());
    std::span<BpmBlock> blocks = ctx.arena().rows<BpmBlock>(num_blocks);
    for (BpmBlock &b : blocks)
        b = BpmBlock{};

    // Score tracked at the bottom cell of the last block. The last block's
    // top bits beyond the pattern are harmless: their eq masks are zero, so
    // they behave like extra mismatching rows we never read.
    const size_t last_row_bit = (n - 1) & 63;
    i64 score = static_cast<i64>(n);

    KernelCounts *counts = ctx.countsSink();
    ctx.beginKernel();
    for (size_t j = 0; j < m; ++j) {
        ctx.poll();
        const u8 c = text.code(j);
        const u64 *pe = &peq[size_t{c} * num_blocks];
        int hin = 1; // Delta h entering row 0 is +1 (top row D[0][j] = j)
        for (size_t b = 0; b < num_blocks; ++b) {
            const int hout = bpmBlockStep(blocks[b], pe[b], hin);
            // When the pattern fills the last block exactly, hout at the
            // last block is the horizontal delta of the true last row, so
            // the score can be tracked incrementally. Otherwise the final
            // value is reconstructed from the vertical deltas after the
            // main loop.
            if (b == num_blocks - 1 && last_row_bit == 63)
                score += hout;
            hin = hout;
        }
        if (counts) {
            counts->alu += kBpmBlockAlu * num_blocks + 4;
            counts->loads += num_blocks * 3; // peq, pv, mv
            counts->stores += num_blocks * 2;
        }
    }
    if (counts)
        counts->cells += static_cast<u64>(n) * m;

    if (last_row_bit == 63) {
        ctx.donePhases();
        return score;
    }

    // Pattern length is not a multiple of 64: reconstruct D[n][m] from the
    // final vertical deltas: D[i][m] = m at i=0 plus the prefix sum.
    i64 value = static_cast<i64>(m);
    for (size_t i = 0; i < n; ++i) {
        const size_t b = i >> 6;
        const u64 bit = u64{1} << (i & 63);
        if (blocks[b].pv & bit)
            ++value;
        else if (blocks[b].mv & bit)
            --value;
    }
    ctx.donePhases();
    return value;
}

i64
bpmDistance(const seq::Sequence &pattern, const seq::Sequence &text)
{
    KernelContext ctx;
    return bpmDistance(pattern, text, ctx);
}

namespace {

/**
 * Traceback over a Pv/Mv column history laid out with @p stride words
 * per column (column j at hist[(j-1) * stride]).
 */
AlignResult
bpmTracebackFromHistory(const seq::Sequence &pattern,
                        const seq::Sequence &text,
                        std::span<const u64> hist_pv,
                        std::span<const u64> hist_mv, size_t stride,
                        KernelContext &ctx)
{
    const size_t n = pattern.size();
    const size_t m = text.size();
    AlignResult res;

    // Column value reconstruction: D[0..n][j] by prefix sum of stored
    // vertical deltas (column j is 1-based here; column 0 is 0..n). Only
    // the first ceil(n/64) words of each column are consulted, so any
    // producer whose low words match the scalar kernel's — including the
    // granule-padded SIMD layouts — yields the identical traceback.
    auto column_values = [&](size_t j, std::span<i64> out) {
        out[0] = static_cast<i64>(j);
        if (j == 0) {
            for (size_t i = 0; i <= n; ++i)
                out[i] = static_cast<i64>(i);
            return;
        }
        const u64 *pv = &hist_pv[(j - 1) * stride];
        const u64 *mv = &hist_mv[(j - 1) * stride];
        for (size_t i = 1; i <= n; ++i) {
            const size_t bit = (i - 1) & 63;
            const size_t b = (i - 1) >> 6;
            i64 dv = 0;
            if (pv[b] & (u64{1} << bit))
                dv = 1;
            else if (mv[b] & (u64{1} << bit))
                dv = -1;
            out[i] = out[i - 1] + dv;
        }
    };

    std::span<i64> col_j = ctx.arena().rowsUninit<i64>(n + 1);
    std::span<i64> col_prev = ctx.arena().rowsUninit<i64>(n + 1);
    column_values(m, col_j);
    res.distance = col_j[n];
    res.has_cigar = true;

    // Traceback with the GMX-TB priority (match, deletion, insertion,
    // mismatch). Visits O(path) columns, each reconstructed in O(n).
    std::vector<Op> ops;
    ops.reserve(n + m);
    size_t i = n, j = m;
    bool have_prev = false;
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
            column_values(j - 1, col_prev);
            have_prev = true;
        }
        const bool eq = pattern.at(i - 1) == text.at(j - 1);
        if (eq && col_j[i] == col_prev[i - 1]) {
            ops.push_back(Op::Match);
            --i;
            --j;
            std::swap(col_j, col_prev);
            have_prev = false;
        } else if (col_j[i] == col_prev[i] + 1) {
            ops.push_back(Op::Deletion);
            --j;
            std::swap(col_j, col_prev);
            have_prev = false;
        } else if (col_j[i] == col_j[i - 1] + 1) {
            ops.push_back(Op::Insertion);
            --i;
        } else {
            GMX_ASSERT(col_j[i] == col_prev[i - 1] + 1,
                       "BPM traceback: inconsistent column values");
            ops.push_back(Op::Mismatch);
            --i;
            --j;
            std::swap(col_j, col_prev);
            have_prev = false;
        }
    }
    std::reverse(ops.begin(), ops.end());
    res.cigar = Cigar(std::move(ops));
    return res;
}

} // namespace

AlignResult
bpmAlign(const seq::Sequence &pattern, const seq::Sequence &text,
         KernelContext &ctx)
{
    const size_t n = pattern.size();
    const size_t m = text.size();
    AlignResult res;

    if (n == 0 || m == 0) {
        res.distance = static_cast<i64>(n + m);
        res.cigar.push(Op::Deletion, m);
        res.cigar.push(Op::Insertion, n);
        res.has_cigar = true;
        return res;
    }

    ctx.beginSetup();
    std::optional<ScratchArena::Frame> frame;
    if (!ctx.peqMemo())
        frame.emplace(ctx.arena());
    const size_t num_blocks = (n + 63) / 64;
    const std::span<const u64> peq = acquirePeq(pattern, num_blocks, ctx);
    if (!frame)
        frame.emplace(ctx.arena());
    std::span<BpmBlock> blocks = ctx.arena().rows<BpmBlock>(num_blocks);
    for (BpmBlock &b : blocks)
        b = BpmBlock{};

    // Column history: Pv/Mv words for every column 1..m.
    // This is the paper's 4*n*m-bit Full(BPM) footprint.
    std::span<u64> hist_pv = ctx.arena().rowsUninit<u64>(num_blocks * m);
    std::span<u64> hist_mv = ctx.arena().rowsUninit<u64>(num_blocks * m);

    KernelCounts *counts = ctx.countsSink();
    ctx.beginKernel();
    for (size_t j = 0; j < m; ++j) {
        ctx.poll();
        const u8 c = text.code(j);
        const u64 *pe = &peq[size_t{c} * num_blocks];
        int hin = 1;
        for (size_t b = 0; b < num_blocks; ++b) {
            hin = bpmBlockStep(blocks[b], pe[b], hin);
            hist_pv[j * num_blocks + b] = blocks[b].pv;
            hist_mv[j * num_blocks + b] = blocks[b].mv;
        }
        if (counts) {
            counts->alu += kBpmBlockAlu * num_blocks + 4;
            counts->loads += num_blocks * 3;
            counts->stores += num_blocks * 4; // state + history
        }
    }
    if (counts)
        counts->cells += static_cast<u64>(n) * m;

    res = bpmTracebackFromHistory(pattern, text, hist_pv, hist_mv,
                                  num_blocks, ctx);
    ctx.donePhases();
    return res;
}

AlignResult
bpmAlign(const seq::Sequence &pattern, const seq::Sequence &text)
{
    KernelContext ctx;
    return bpmAlign(pattern, text, ctx);
}

} // namespace gmx::align

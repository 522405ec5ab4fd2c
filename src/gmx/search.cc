#include "gmx/search.hh"

#include <algorithm>
#include <array>
#include <string>

#include "common/logging.hh"
#include "gmx/full.hh"
#include "gmx/tile.hh"

namespace gmx::core {

namespace {

/**
 * Semi-global tile sweep: top boundary deltas are zero (an occurrence may
 * start at any text position), left boundary is +1 (the whole pattern
 * must be consumed). Returns the bottom-row values D[n][j] for j = 1..m.
 *
 * The sweep runs tile-row-major so each pattern chunk's per-symbol masks
 * are built once and reused across the whole text — the software stand-in
 * for the hardware's per-cell comparators.
 */
std::vector<i64>
semiGlobalBottomRow(const u8 *pattern, size_t n, const u8 *text, size_t m,
                    unsigned t, bool bytes, align::KernelCounts *counts)
{
    GMX_ASSERT(n > 0 && m > 0);
    const size_t gr = (n + t - 1) / t;
    const size_t gc = (m + t - 1) / t;

    // dh chain entering each tile column from the row above; row 0 sees
    // the all-zero semi-global boundary.
    std::vector<DeltaVec> dh(gc);

    // Per-symbol masks for the current pattern chunk. DNA uses 4 symbols,
    // bytes use the full 256-entry table.
    std::array<u64, 256> eq_mask{};

    std::vector<i64> bottom; // filled on the last tile row

    for (size_t ti = 0; ti < gr; ++ti) {
        const unsigned tp =
            static_cast<unsigned>(std::min<size_t>(t, n - ti * t));
        const u8 *pchunk = pattern + ti * t;

        const unsigned symbols = bytes ? 256 : 4;
        std::fill(eq_mask.begin(), eq_mask.begin() + symbols, 0);
        for (unsigned r = 0; r < tp; ++r)
            eq_mask[pchunk[r]] |= u64{1} << r;
        const u64 row_mask = DeltaVec::laneMask(tp);

        DeltaVec dv = DeltaVec::ones(tp); // left boundary of this row
        for (size_t tj = 0; tj < gc; ++tj) {
            const unsigned tt =
                static_cast<unsigned>(std::min<size_t>(t, m - tj * t));
            const u8 *tchunk = text + tj * t;
            const DeltaVec dh_in =
                ti == 0 ? DeltaVec::zeros(tt) : dh[tj];

            // The tile kernel's column steps, with the per-row symbol table
            // shared across the text.
            u64 pv = dv.p & row_mask;
            u64 mv = dv.m & row_mask;
            const u64 out_bit = u64{1} << (tp - 1);
            DeltaVec dh_out;
            for (unsigned c = 0; c < tt; ++c) {
                const ColumnWords col = tileColumnStep(
                    eq_mask[tchunk[c]], dh_in.at(c), row_mask, pv, mv);
                if (col.ph & out_bit)
                    dh_out.p |= u64{1} << c;
                else if (col.mh & out_bit)
                    dh_out.m |= u64{1} << c;
                pv = col.pv;
                mv = col.mv;
            }
            dv.p = pv;
            dv.m = mv;
            dh[tj] = dh_out;
            if (counts) {
                counts->cells += static_cast<u64>(tp) * tt;
                counts->gmx_ac += 2;
                counts->csr += 1;
                counts->loads += 2;
                counts->stores += 2;
                counts->alu += 4;
            }
        }
    }

    // Accumulate the bottom row: D[n][0] = n, then the stored dh bits.
    bottom.resize(m);
    i64 v = static_cast<i64>(n);
    for (size_t j = 0; j < m; ++j) {
        const size_t tj = j / t;
        const unsigned c = static_cast<unsigned>(j % t);
        v += dh[tj].at(c);
        bottom[j] = v;
    }
    return bottom;
}

/** Keep only the best occurrence of each contiguous sub-threshold run. */
std::vector<Occurrence>
collectOccurrences(const std::vector<i64> &bottom, i64 k, bool best_per_run)
{
    std::vector<Occurrence> occ;
    size_t j = 0;
    const size_t m = bottom.size();
    while (j < m) {
        if (bottom[j] > k) {
            ++j;
            continue;
        }
        // A run of candidate end positions.
        size_t best = j;
        size_t end = j;
        while (end < m && bottom[end] <= k) {
            if (bottom[end] < bottom[best])
                best = end;
            ++end;
        }
        if (best_per_run) {
            occ.push_back({best + 1, 0, bottom[best], {}});
        } else {
            for (size_t p = j; p < end; ++p)
                occ.push_back({p + 1, 0, bottom[p], {}});
        }
        j = end;
    }
    return occ;
}

/** Byte-level search core shared by the DNA and byte front ends. */
std::vector<Occurrence>
searchImpl(const u8 *pattern, size_t n, const u8 *text, size_t m,
           bool bytes, const SearchOptions &opts,
           align::KernelCounts *counts)
{
    if (opts.max_distance < 0)
        GMX_FATAL("searchGmx: negative error budget");
    std::vector<Occurrence> occ;
    if (n == 0 || m == 0)
        return occ;
    if (static_cast<i64>(n) <= opts.max_distance) {
        GMX_FATAL("searchGmx: error budget %lld admits empty occurrences "
                  "of a %zu-symbol pattern",
                  static_cast<long long>(opts.max_distance), n);
    }

    const auto bottom = semiGlobalBottomRow(pattern, n, text, m, opts.tile,
                                            bytes, counts);
    occ = collectOccurrences(bottom, opts.max_distance, opts.best_per_run);
    if (!opts.with_alignment)
        return occ;

    // Recover start positions: search the reversed pattern in the
    // reversed candidate window, then align globally for the CIGAR.
    std::vector<u8> rp(pattern, pattern + n);
    std::reverse(rp.begin(), rp.end());
    for (auto &o : occ) {
        const size_t span =
            std::min<size_t>(o.end, n + static_cast<size_t>(o.distance));
        std::vector<u8> rw(text + (o.end - span), text + o.end);
        std::reverse(rw.begin(), rw.end());

        SearchOptions rev_opts;
        rev_opts.max_distance = o.distance;
        rev_opts.with_alignment = false;
        rev_opts.tile = opts.tile;
        rev_opts.best_per_run = false;
        const auto rev = searchImpl(rp.data(), n, rw.data(), span, bytes,
                                    rev_opts, counts);
        GMX_ASSERT(!rev.empty(), "forward hit must be found in reverse");
        // The best (lowest-distance, longest-reach) reverse end gives the
        // occurrence start.
        size_t best_f = rev[0].end;
        i64 best_d = rev[0].distance;
        for (const auto &r : rev) {
            if (r.distance < best_d) {
                best_d = r.distance;
                best_f = r.end;
            }
        }
        GMX_ASSERT(best_d == o.distance,
                   "reverse search must reproduce the occurrence score");
        o.begin = o.end - best_f;

        // Global alignment of pattern vs. the located window. Byte mode
        // reports begin/end/distance only: the DNA Sequence container
        // cannot carry arbitrary bytes, and aligning a located window is
        // a plain global alignment the caller can run with any scorer.
        if (!bytes) {
            const seq::Sequence p_seq(
                std::vector<u8>(pattern, pattern + n));
            const seq::Sequence w_seq(
                std::vector<u8>(text + o.begin, text + o.end));
            KernelContext ctx(CancelToken{}, counts);
            const auto res = fullGmxAlign(p_seq, w_seq, opts.tile, ctx);
            GMX_ASSERT(res.distance == o.distance);
            o.cigar = res.cigar;
        }
    }
    return occ;
}

} // namespace

std::vector<Occurrence>
searchGmx(const seq::Sequence &pattern, const seq::Sequence &text,
          const SearchOptions &opts, align::KernelCounts *counts)
{
    return searchImpl(pattern.codes().data(), pattern.size(),
                      text.codes().data(), text.size(), /*bytes=*/false,
                      opts, counts);
}

std::vector<Occurrence>
searchGmxBytes(std::string_view pattern, std::string_view text,
               const SearchOptions &opts, align::KernelCounts *counts)
{
    return searchImpl(reinterpret_cast<const u8 *>(pattern.data()),
                      pattern.size(),
                      reinterpret_cast<const u8 *>(text.data()),
                      text.size(), /*bytes=*/true, opts, counts);
}

} // namespace gmx::core

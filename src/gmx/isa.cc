#include "gmx/isa.hh"

namespace gmx::core {

GmxUnit::GmxUnit(unsigned tile_size)
    : t_(tile_size)
{
    if (t_ < 2 || t_ > kMaxTile)
        GMX_FATAL("GmxUnit: tile size %u outside [2, %u]", t_, kMaxTile);
}

void
GmxUnit::csrwPattern(const u8 *codes, unsigned len)
{
    GMX_ASSERT(len >= 1 && len <= t_);
    for (unsigned r = 0; r < len; ++r)
        pattern_[r] = codes[r] & 3;
    pattern_len_ = len;
    last_valid_ = false;
    ++counts_.csr_write;
}

void
GmxUnit::csrwText(const u8 *codes, unsigned len)
{
    GMX_ASSERT(len >= 1 && len <= t_);
    for (unsigned c = 0; c < len; ++c)
        text_[c] = codes[c] & 3;
    text_len_ = len;
    last_valid_ = false;
    ++counts_.csr_write;
}

void
GmxUnit::csrwPos(const TracebackPos &pos)
{
    GMX_ASSERT(pos.index < t_);
    pos_ = pos;
    ++counts_.csr_write;
}

TracebackPos
GmxUnit::csrrPos()
{
    ++counts_.csr_read;
    return pos_;
}

void
GmxUnit::csrwPatternPacked(u64 reg, unsigned len)
{
    GMX_ASSERT(t_ <= 32, "packed CSR forms need 2T <= 64 bits");
    const unsigned n = len == 0 ? t_ : len;
    u8 codes[kMaxTile];
    for (unsigned r = 0; r < n; ++r)
        codes[r] = static_cast<u8>((reg >> (2 * r)) & 3);
    csrwPattern(codes, n);
}

void
GmxUnit::csrwTextPacked(u64 reg, unsigned len)
{
    GMX_ASSERT(t_ <= 32, "packed CSR forms need 2T <= 64 bits");
    const unsigned n = len == 0 ? t_ : len;
    u8 codes[kMaxTile];
    for (unsigned c = 0; c < n; ++c)
        codes[c] = static_cast<u8>((reg >> (2 * c)) & 3);
    csrwText(codes, n);
}

void
GmxUnit::csrwPosPacked(u64 one_hot)
{
    GMX_ASSERT(t_ <= 32, "packed CSR forms need 2T <= 64 bits");
    GMX_ASSERT(one_hot != 0 && (one_hot & (one_hot - 1)) == 0,
               "gmx_pos must be one-hot");
    const unsigned bit = static_cast<unsigned>(__builtin_ctzll(one_hot));
    if (bit < t_)
        csrwPos({TracebackPos::Edge::Bottom, bit});
    else
        csrwPos({TracebackPos::Edge::Right, bit - t_});
}

u64
GmxUnit::csrrPosPacked()
{
    GMX_ASSERT(t_ <= 32, "packed CSR forms need 2T <= 64 bits");
    const TracebackPos pos = csrrPos();
    const unsigned bit = pos.edge == TracebackPos::Edge::Bottom
                             ? pos.index
                             : t_ + pos.index;
    return u64{1} << bit;
}

TileInput
GmxUnit::currentTile(const DeltaVec &dv_in, const DeltaVec &dh_in) const
{
    GMX_ASSERT(pattern_len_ > 0 && text_len_ > 0,
               "gmx_pattern/gmx_text CSRs not loaded");
    TileInput in;
    in.pattern = pattern_.data();
    in.tp = pattern_len_;
    in.text = text_.data();
    in.tt = text_len_;
    in.dv_in = dv_in;
    in.dh_in = dh_in;
    return in;
}

const TileOutput &
GmxUnit::evaluate(const DeltaVec &dv_in, const DeltaVec &dh_in)
{
    if (!last_valid_ || last_dv_in_ != dv_in || last_dh_in_ != dh_in) {
        last_out_ = tileCompute(currentTile(dv_in, dh_in));
        last_dv_in_ = dv_in;
        last_dh_in_ = dh_in;
        last_valid_ = true;
    }
    return last_out_;
}

DeltaVec
GmxUnit::gmxV(const DeltaVec &dv_in, const DeltaVec &dh_in)
{
    ++counts_.gmx_v;
    return evaluate(dv_in, dh_in).dv_out;
}

DeltaVec
GmxUnit::gmxH(const DeltaVec &dv_in, const DeltaVec &dh_in)
{
    ++counts_.gmx_h;
    return evaluate(dv_in, dh_in).dh_out;
}

TileOutput
GmxUnit::gmxVH(const DeltaVec &dv_in, const DeltaVec &dh_in)
{
    ++counts_.gmx_vh;
    return evaluate(dv_in, dh_in);
}

u64
GmxUnit::gmxVPacked(u64 dv_in, u64 dh_in)
{
    GMX_ASSERT(t_ <= 32, "packed operands need 2T <= 64 bits");
    return packDelta(gmxV(unpackDelta(dv_in, t_), unpackDelta(dh_in, t_)),
                     t_);
}

u64
GmxUnit::gmxHPacked(u64 dv_in, u64 dh_in)
{
    GMX_ASSERT(t_ <= 32, "packed operands need 2T <= 64 bits");
    return packDelta(gmxH(unpackDelta(dv_in, t_), unpackDelta(dh_in, t_)),
                     t_);
}

TracebackStep
GmxUnit::gmxTb(const DeltaVec &dv_in, const DeltaVec &dh_in)
{
    ++counts_.gmx_tb;
    const TileInput in = currentTile(dv_in, dh_in);

    // Starting cell.
    int r, c;
    if (pos_.edge == TracebackPos::Edge::Bottom) {
        GMX_ASSERT(pos_.index < in.tt, "gmx_pos column outside tile");
        r = static_cast<int>(in.tp) - 1;
        c = static_cast<int>(pos_.index);
    } else {
        GMX_ASSERT(pos_.index < in.tp, "gmx_pos row outside tile");
        r = static_cast<int>(pos_.index);
        c = static_cast<int>(in.tt) - 1;
    }

    // GMX-TB recomputes the interior DP-elements from the stored edges
    // (the GMX-AC array is reused for this in hardware, Fig. 9.b): the
    // column steps up to the start column, keeping each column's words.
    ColumnWords cols[kMaxTile];
    tileColumns(in, static_cast<unsigned>(c) + 1, cols);

    TracebackStep step;
    while (r >= 0 && c >= 0) {
        const u64 bit = u64{1} << r;
        // CCTB priority table (Fig. 8): M, then D, then I, then X.
        if (in.pattern[r] == in.text[c]) {
            step.ops.push_back(align::Op::Match);
            --r;
            --c;
        } else if (cols[c].ph & bit) {
            step.ops.push_back(align::Op::Deletion);
            --c;
        } else if (cols[c].pv & bit) {
            step.ops.push_back(align::Op::Insertion);
            --r;
        } else {
            step.ops.push_back(align::Op::Mismatch);
            --r;
            --c;
        }
    }
    GMX_ASSERT(step.ops.size() <= 2 * static_cast<size_t>(t_) - 1,
               "tile traceback longer than one op per antidiagonal");

    // Exit classification and entry position in the adjacent tile. The
    // adjacent interior tiles are always full T x T (partial tiles only
    // occur on the matrix's last tile row/column).
    if (r < 0 && c < 0) {
        step.next = NextTile::Diag;
        step.next_pos = {TracebackPos::Edge::Bottom, t_ - 1};
    } else if (r < 0) {
        step.next = NextTile::Up;
        step.next_pos = {TracebackPos::Edge::Bottom,
                         static_cast<unsigned>(c)};
    } else {
        step.next = NextTile::Left;
        step.next_pos = {TracebackPos::Edge::Right,
                         static_cast<unsigned>(r)};
    }
    pos_ = step.next_pos;

    // Encode into the gmx_lo / gmx_hi CSRs (2-bit ops; defined for any T
    // but only representable in 64-bit CSRs when T <= 32).
    if (t_ <= 32) {
        lo_ = 0;
        hi_ = 0;
        for (size_t k = 0; k < step.ops.size(); ++k) {
            const u64 code = static_cast<u64>(step.ops[k]);
            if (k < t_)
                lo_ |= code << (2 * k);
            else
                hi_ |= code << (2 * (k - t_));
        }
        hi_ |= static_cast<u64>(step.next) << (2 * (t_ - 1));
    }
    return step;
}

u64
GmxUnit::csrrLo()
{
    ++counts_.csr_read;
    return lo_;
}

u64
GmxUnit::csrrHi()
{
    ++counts_.csr_read;
    return hi_;
}

} // namespace gmx::core

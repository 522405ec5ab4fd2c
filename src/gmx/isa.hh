/**
 * @file
 * Functional model of the GMX ISA extension (paper §5).
 *
 * GmxUnit models the architectural state added by GMX — the five CSRs
 * gmx_pattern, gmx_text, gmx_pos, gmx_lo, gmx_hi — and the semantics of
 * the three instructions:
 *
 *   gmx.v rd, rs1, rs2 : rd = dv_out of the tile defined by the CSRs and
 *                        the rs1 = dv_in / rs2 = dh_in operands.
 *   gmx.h rd, rs1, rs2 : rd = dh_out of the same tile.
 *   gmx.tb rs1, rs2    : tile traceback from gmx_pos; writes the 2-bit
 *                        encoded ops into gmx_lo/gmx_hi and the traceback
 *                        end position (plus next-tile direction) back.
 *
 * The model is parameterized by the tile size T (default 32, matching the
 * paper's 64-bit-register design point; the 2T-bit register packing via
 * packDelta is only available for T <= 32, while the DeltaVec interface
 * models hypothetical wider datapaths up to T = 64).
 *
 * The unit also keeps an executed-instruction census (CSR accesses and
 * gmx.* counts) that the aligners expose for the performance model.
 *
 * The emulation evaluates each forward tile once: gmx.v and gmx.h on the
 * same operands share the last evaluated tile until a csrw of gmx_pattern
 * or gmx_text, while the census still counts every instruction. gmx.tb
 * recomputes the tile's column words with the gmx.v/gmx.h column step,
 * as the hardware reuses the GMX-AC array (Fig. 9.b).
 */

#ifndef GMX_GMX_ISA_HH
#define GMX_GMX_ISA_HH

#include <array>

#include "align/cigar.hh"
#include "gmx/tile.hh"

namespace gmx::core {

/** Direction of the next tile to visit during the global traceback. */
enum class NextTile : u8
{
    Diag = 0, //!< up-left neighbour (path left via the tile corner)
    Up = 1,   //!< tile above (path left via the top edge)
    Left = 2, //!< tile to the left (path left via the left edge)
};

/** One-hot traceback position on a tile's bottom or right edge. */
struct TracebackPos
{
    enum class Edge : u8 { Bottom, Right };
    Edge edge = Edge::Bottom;
    unsigned index = 0; //!< column (Bottom) or row (Right) in the tile

    bool
    operator==(const TracebackPos &o) const
    {
        return edge == o.edge && index == o.index;
    }
};

/**
 * The ops of one tile traceback, held inline: at most one per
 * antidiagonal, 2T-1 at the widest tile, so a step never allocates.
 */
class TracebackOps
{
  public:
    static constexpr size_t kCapacity = 2 * kMaxTile - 1;

    void
    push_back(align::Op op)
    {
        GMX_ASSERT(size_ < kCapacity,
                   "tile traceback longer than one op per antidiagonal");
        ops_[size_++] = op;
    }

    size_t size() const { return size_; }
    align::Op operator[](size_t k) const { return ops_[k]; }
    const align::Op *begin() const { return ops_.data(); }
    const align::Op *end() const { return ops_.data() + size_; }

  private:
    std::array<align::Op, kCapacity> ops_{};
    size_t size_ = 0;
};

/** Result of one gmx.tb execution, decoded from gmx_lo/gmx_hi/gmx_pos. */
struct TracebackStep
{
    /** Ops in path order (towards the origin), at most 2T-1 of them. */
    TracebackOps ops;
    NextTile next = NextTile::Diag; //!< where the path continues
    TracebackPos next_pos;          //!< entry position in that tile
};

/** Dynamic instruction census of the unit. */
struct GmxInstrCounts
{
    u64 gmx_v = 0;
    u64 gmx_h = 0;
    u64 gmx_vh = 0; //!< merged dual-destination variant (§5 discussion)
    u64 gmx_tb = 0;
    u64 csr_read = 0;
    u64 csr_write = 0;
};

/**
 * Architectural-state model of one GMX unit.
 *
 * CSR writes load pattern/text chunks of up to T characters; shorter
 * chunks model the partial edge tiles of a matrix whose sides are not
 * multiples of T (hardware pads the registers; the model masks lanes).
 */
class GmxUnit
{
  public:
    explicit GmxUnit(unsigned tile_size = 32);

    unsigned tileSize() const { return t_; }

    /** csrw gmx_pattern: load @p len (1..T) pattern codes. */
    void csrwPattern(const u8 *codes, unsigned len);

    /** csrw gmx_text: load @p len (1..T) text codes. */
    void csrwText(const u8 *codes, unsigned len);

    /** csrw gmx_pos. */
    void csrwPos(const TracebackPos &pos);

    /** csrr gmx_pos. */
    TracebackPos csrrPos();

    /**
     * Register-level CSR forms (T <= 32): gmx_pattern/gmx_text hold T
     * 2-bit characters packed into one 64-bit value (lane r at bits
     * [2r, 2r+1]); gmx_pos is the one-hot 2T-bit encoding with bottom-row
     * positions in bits [0, T) and right-column positions in bits
     * [T, 2T). These are what a real RISC-V binary moves through csrw.
     */
    void csrwPatternPacked(u64 reg, unsigned len = 0);
    void csrwTextPacked(u64 reg, unsigned len = 0);
    void csrwPosPacked(u64 one_hot);
    u64 csrrPosPacked();

    /**
     * gmx.v: compute the tile and return the right-edge vertical deltas.
     */
    DeltaVec gmxV(const DeltaVec &dv_in, const DeltaVec &dh_in);

    /** gmx.h: compute the tile and return the bottom-edge deltas. */
    DeltaVec gmxH(const DeltaVec &dv_in, const DeltaVec &dh_in);

    /**
     * gmx.vh: the merged variant the paper sketches for cores with two
     * destination register ports (§5) — one instruction produces both
     * edges, halving the per-tile instruction count. Not part of the
     * baseline single-write-port encoding.
     */
    TileOutput gmxVH(const DeltaVec &dv_in, const DeltaVec &dh_in);

    /**
     * gmx.tb: trace the alignment path through the tile starting from
     * gmx_pos, updating gmx_lo/gmx_hi/gmx_pos. The decoded result is also
     * returned for convenience (equivalent to csrr of gmx_lo/gmx_hi).
     */
    TracebackStep gmxTb(const DeltaVec &dv_in, const DeltaVec &dh_in);

    /** Raw gmx_lo/gmx_hi CSR values after the last gmx.tb (T <= 32). */
    u64 csrrLo();
    u64 csrrHi();

    /** Packed-register variants (T <= 32), mirroring the RISC-V encoding. */
    u64 gmxVPacked(u64 dv_in, u64 dh_in);
    u64 gmxHPacked(u64 dv_in, u64 dh_in);

    const GmxInstrCounts &counts() const { return counts_; }
    void resetCounts() { counts_ = GmxInstrCounts(); }

  private:
    TileInput currentTile(const DeltaVec &dv_in, const DeltaVec &dh_in) const;

    /** Both edges of the tile on these operands, evaluated at most once. */
    const TileOutput &evaluate(const DeltaVec &dv_in, const DeltaVec &dh_in);

    unsigned t_;
    std::array<u8, kMaxTile> pattern_{};
    unsigned pattern_len_ = 0;
    std::array<u8, kMaxTile> text_{};
    unsigned text_len_ = 0;
    TracebackPos pos_;
    u64 lo_ = 0;
    u64 hi_ = 0;
    GmxInstrCounts counts_;

    /** The last tile evaluate() computed; cleared by CSR chunk loads. */
    bool last_valid_ = false;
    DeltaVec last_dv_in_;
    DeltaVec last_dh_in_;
    TileOutput last_out_;
};

} // namespace gmx::core

#endif // GMX_GMX_ISA_HH

#include "kernel/simd/bpm_simd.hh"

#include <algorithm>

#include "align/bpm.hh"
#include "kernel/simd/simd.hh"
#include "sequence/alphabet.hh"

namespace gmx::simd {

static_assert(kBatchLanes == kLanes,
              "engine-visible lane count must match the vector backend");

bool
builtWithAvx2()
{
    return compiledWithAvx2();
}

namespace {

/**
 * Per-lane cancellation and column accounting for one packed quad. The
 * scalar kernels poll their (single) token every kCancelPollStride rows;
 * the packed loop must do the same for FOUR independent tokens, and a
 * stop on one lane must not abort its siblings: the stopped lane is
 * masked out of the score accumulator (its slot keeps computing garbage,
 * like an exhausted-text lane) while the survivors run to completion.
 * Only when every lane has stopped does the column loop break early.
 */
struct LaneGuard
{
    BatchLane *lanes;
    const u64 *ml;      //!< per-lane text lengths
    V alive = vOnes();  //!< all-ones per live lane, zero once stopped
    u64 cols[kLanes] = {}; //!< columns each lane consumed
    bool dead[kLanes] = {};
    unsigned live = kLanes;
    unsigned countdown = kCancelPollStride;
    bool any_active = false;

    LaneGuard(BatchLane *lanes_, const u64 *ml_) : lanes(lanes_), ml(ml_)
    {
        // The engine's runOne deadline pre-check, re-applied at kernel
        // entry: a lane whose deadline expired between packing and the
        // group call fast-fails at column 0 instead of riding along.
        for (size_t l = 0; l < kLanes; ++l) {
            if (!lanes[l].cancel.active())
                continue;
            any_active = true;
            if (Status s = lanes[l].cancel.check(); !s.ok())
                kill(l, 0, std::move(s));
        }
    }

    void kill(size_t l, size_t j, Status s)
    {
        dead[l] = true;
        --live;
        lanes[l].status = std::move(s);
        cols[l] = std::min<u64>(j, ml[l]);
        u64 m[kLanes] = {~u64{0}, ~u64{0}, ~u64{0}, ~u64{0}};
        m[l] = 0;
        alive = vAnd(alive, vSet(m[0], m[1], m[2], m[3]));
    }

    /** Column-loop poll; false once every lane has stopped. */
    bool poll(size_t j)
    {
        if (!any_active)
            return true;
        if (--countdown != 0)
            return live != 0;
        countdown = kCancelPollStride;
        for (size_t l = 0; l < kLanes; ++l) {
            if (dead[l] || !lanes[l].cancel.active())
                continue;
            if (Status s = lanes[l].cancel.check(); !s.ok())
                kill(l, j, std::move(s));
        }
        return live != 0;
    }

    /** Close the books: surviving lanes consumed their whole text. */
    void finish()
    {
        for (size_t l = 0; l < kLanes; ++l)
            if (!dead[l])
                cols[l] = ml[l];
    }
};

/**
 * Column loop of the multi-block inter-pair batcher for 2..4 blocks per
 * lane, with the block loop unrolled at compile time so the per-block
 * state lives in registers, and the per-column eq marshalling done as a
 * 4x4 transpose (4 vector loads + 8 shuffles replaces 16 GPR-to-vector
 * inserts). Lanes whose text is exhausted keep running on their symbol-0
 * row; their scores are frozen by the active mask and per-lane isolation
 * keeps the garbage out of live lanes.
 */
template <size_t W>
void
batchColumns(const BatchLane *lanes,
             const u64 (*lane_peq)[seq::kDnaSymbols][kBatchMaxBlocks],
             const u64 *ml, V mlens, const V *rsh, const V *sel,
             const bool *scored, size_t mmax, V &scores, LaneGuard &guard)
{
    static_assert(W >= 2 && W <= 4);
    const V one = vSet1(1);
    V bpv[W], bmv[W];
    for (size_t b = 0; b < W; ++b) {
        bpv[b] = vOnes();
        bmv[b] = vZero();
    }
    for (size_t j = 0; j < mmax; ++j) {
        if (!guard.poll(j))
            return;
        u8 cl[kLanes];
        for (size_t l = 0; l < kLanes; ++l)
            cl[l] = j < ml[l] ? lanes[l].pair->text.code(j) : u8{0};
        // Lane-major peq rows -> block-major eq vectors.
        const V r0 = vLoad(lane_peq[0][cl[0]]);
        const V r1 = vLoad(lane_peq[1][cl[1]]);
        const V r2 = vLoad(lane_peq[2][cl[2]]);
        const V r3 = vLoad(lane_peq[3][cl[3]]);
        const V t0 = vUnpackLo64(r0, r1);
        const V t1 = vUnpackHi64(r0, r1);
        const V t2 = vUnpackLo64(r2, r3);
        const V t3 = vUnpackHi64(r2, r3);
        V eqb[W];
        eqb[0] = vConcatLo128(t0, t2);
        eqb[1] = vConcatLo128(t1, t3);
        if constexpr (W > 2)
            eqb[2] = vConcatHi128(t0, t2);
        if constexpr (W > 3)
            eqb[3] = vConcatHi128(t1, t3);

        const V active = vAnd(vGt64(mlens, vSet1(j)), guard.alive);
        V hp = one; // top boundary row: hin = +1 in every lane
        V hm = vZero();
        for (size_t b = 0; b < W; ++b) {
            const V pv = bpv[b];
            const V mv = bmv[b];
            const V eq = vOr(eqb[b], hm);
            const V xv = vOr(eq, mv);
            const V xh = vOr(vXor(vAdd64(vAnd(eq, pv), pv), pv), eq);
            const V ph = vOr(mv, vNot(vOr(xh, pv)));
            const V mh = vAnd(pv, xh);
            if (scored[b]) {
                const V delta = vSub64(vAnd(vShrVar(ph, rsh[b]), one),
                                       vAnd(vShrVar(mh, rsh[b]), one));
                scores =
                    vAdd64(scores, vAnd(vAnd(delta, sel[b]), active));
            }
            const V php = vOr(vShl1Lanes(ph), hp);
            const V mhp = vOr(vShl1Lanes(mh), hm);
            hp = vShr63Lanes(ph);
            hm = vShr63Lanes(mh);
            bpv[b] = vOr(mhp, vNot(vOr(xv, php)));
            bmv[b] = vAnd(php, xv);
        }
    }
}

/**
 * One lane that cannot ride a packed quad (tail of the group, oversize
 * pattern): scalar bpmDistance under a private sub-context so the lane's
 * own token and counts keep per-lane semantics; phases and counts fold
 * into @p ctx so the outer caller still sees the whole call.
 */
void
runScalarLane(BatchLane &lane, KernelContext &ctx)
{
    lane.status = lane.cancel.check();
    if (!lane.status.ok())
        return;
    KernelContext sub(lane.cancel, &lane.counts, &ctx.arena());
    try {
        lane.distance =
            align::bpmDistance(lane.pair->pattern, lane.pair->text, sub);
    } catch (const StatusError &e) {
        lane.status = e.status();
    }
    ctx.addPhases(sub.takePhases());
    ctx.addCounts(lane.counts);
}

/** One packed quad: four batchable lanes, one column loop. */
void
runGroup4(BatchLane *lanes, KernelContext &ctx)
{
    ctx.beginSetup();
    // Per-lane per-symbol block masks; four independent multi-word
    // recurrences, so carries must NOT cross lanes (per-lane ops
    // only below).
    u64 lane_peq[kLanes][seq::kDnaSymbols][kBatchMaxBlocks] = {};
    u64 nl[kLanes], ml[kLanes];
    size_t mmax = 0;
    size_t W = 1; // blocks in the deepest lane
    for (size_t l = 0; l < kLanes; ++l) {
        const seq::SequencePair &pr = *lanes[l].pair;
        nl[l] = pr.pattern.size();
        ml[l] = pr.text.size();
        mmax = std::max<size_t>(mmax, pr.text.size());
        W = std::max<size_t>(W, (pr.pattern.size() + 63) / 64);
        for (size_t i = 0; i < pr.pattern.size(); ++i)
            lane_peq[l][pr.pattern.code(i)][i >> 6] |= u64{1} << (i & 63);
    }
    LaneGuard guard(lanes, ml);
    V scores = vSet(nl[0], nl[1], nl[2], nl[3]);
    const V mlens = vSet(ml[0], ml[1], ml[2], ml[3]);
    const V one = vSet1(1);

    if (W == 1 && guard.live != 0) {
        V pv = vOnes();
        V mv = vZero();
        const V rshift = vSet(nl[0] - 1, nl[1] - 1, nl[2] - 1, nl[3] - 1);

        ctx.beginKernel();
        for (size_t j = 0; j < mmax; ++j) {
            if (!guard.poll(j))
                break;
            u64 e[kLanes];
            for (size_t l = 0; l < kLanes; ++l) {
                e[l] = j < ml[l]
                           ? lane_peq[l][lanes[l].pair->text.code(j)][0]
                           : 0;
            }
            const V eq = vSet(e[0], e[1], e[2], e[3]);
            const V xv = vOr(eq, mv);
            const V xh = vOr(vXor(vAdd64(vAnd(eq, pv), pv), pv), eq);
            V ph = vOr(mv, vNot(vOr(xh, pv)));
            V mh = vAnd(pv, xh);
            // Per-lane score delta at each pattern's last row, frozen
            // once the lane's text is exhausted (or the lane stopped).
            const V active = vAnd(vGt64(mlens, vSet1(j)), guard.alive);
            const V delta = vSub64(vAnd(vShrVar(ph, rshift), one),
                                   vAnd(vShrVar(mh, rshift), one));
            scores = vAdd64(scores, vAnd(delta, active));
            // hin = +1 every column (top boundary row; patterns are
            // one word, so no inter-block chaining exists).
            ph = vOr(vShl1Lanes(ph), one);
            mh = vShl1Lanes(mh);
            pv = vOr(mh, vNot(vOr(xv, ph)));
            mv = vAnd(ph, xv);
        }
        ctx.donePhases();
    } else if (guard.live != 0) {
        // Multi-block lanes: blocks chain through per-lane hin/hout
        // carried as 0/1 bit vectors (hp/hm), the vector rendition of
        // the scalar bpmBlockStep chain. Lanes shallower than W run
        // zero-peq garbage rows in their upper blocks; the chain only
        // moves deltas upward, so each lane's scored block is exact.
        V bpv[kBatchMaxBlocks], bmv[kBatchMaxBlocks];
        for (size_t b = 0; b < W; ++b) {
            bpv[b] = vOnes();
            bmv[b] = vZero();
        }
        // Per block: which lanes read their score here, and the
        // within-block shift of each such lane's last pattern row.
        V rsh[kBatchMaxBlocks], sel[kBatchMaxBlocks];
        bool scored[kBatchMaxBlocks] = {};
        for (size_t b = 0; b < W; ++b) {
            u64 r[kLanes], s[kLanes];
            for (size_t l = 0; l < kLanes; ++l) {
                const bool here = (nl[l] - 1) / 64 == b;
                r[l] = here ? (nl[l] - 1) & 63 : 63;
                s[l] = here ? ~u64{0} : 0;
                scored[b] = scored[b] || here;
            }
            rsh[b] = vSet(r[0], r[1], r[2], r[3]);
            sel[b] = vSet(s[0], s[1], s[2], s[3]);
        }

        ctx.beginKernel();
        if (W == 2) {
            batchColumns<2>(lanes, lane_peq, ml, mlens, rsh, sel, scored,
                            mmax, scores, guard);
        } else if (W == 3) {
            batchColumns<3>(lanes, lane_peq, ml, mlens, rsh, sel, scored,
                            mmax, scores, guard);
        } else if (W == 4) {
            batchColumns<4>(lanes, lane_peq, ml, mlens, rsh, sel, scored,
                            mmax, scores, guard);
        } else {
            // 5..kBatchMaxBlocks blocks: runtime block loop with
            // scalar eq marshalling.
            for (size_t j = 0; j < mmax; ++j) {
                if (!guard.poll(j))
                    break;
                u8 cl[kLanes];
                for (size_t l = 0; l < kLanes; ++l)
                    cl[l] =
                        j < ml[l] ? lanes[l].pair->text.code(j) : u8{0};
                const V active =
                    vAnd(vGt64(mlens, vSet1(j)), guard.alive);
                V hp = one; // top boundary row: hin = +1 every lane
                V hm = vZero();
                for (size_t b = 0; b < W; ++b) {
                    u64 e[kLanes];
                    for (size_t l = 0; l < kLanes; ++l)
                        e[l] = j < ml[l] ? lane_peq[l][cl[l]][b] : 0;
                    const V pv = bpv[b];
                    const V mv = bmv[b];
                    const V eq = vOr(vSet(e[0], e[1], e[2], e[3]), hm);
                    const V xv = vOr(eq, mv);
                    const V xh =
                        vOr(vXor(vAdd64(vAnd(eq, pv), pv), pv), eq);
                    const V ph = vOr(mv, vNot(vOr(xh, pv)));
                    const V mh = vAnd(pv, xh);
                    if (scored[b]) {
                        const V delta =
                            vSub64(vAnd(vShrVar(ph, rsh[b]), one),
                                   vAnd(vShrVar(mh, rsh[b]), one));
                        scores = vAdd64(
                            scores, vAnd(vAnd(delta, sel[b]), active));
                    }
                    const V php = vOr(vShl1Lanes(ph), hp);
                    const V mhp = vOr(vShl1Lanes(mh), hm);
                    // hout of this block (MSB pre-shift) is the
                    // next block's hin; ph & mh are disjoint so at
                    // most one of hp/hm is set per lane.
                    hp = vShr63Lanes(ph);
                    hm = vShr63Lanes(mh);
                    bpv[b] = vOr(mhp, vNot(vOr(xv, php)));
                    bmv[b] = vAnd(php, xv);
                }
            }
        }
        ctx.donePhases();
    }

    guard.finish();
    for (size_t l = 0; l < kLanes; ++l) {
        BatchLane &lane = lanes[l];
        if (!guard.dead[l])
            lane.distance = static_cast<i64>(vLane(scores, l));
        // Per-lane work attribution: each lane is charged its own rows
        // times the columns it actually consumed, and a quarter share of
        // the group's vector ops — so fused requests report their own
        // cells, not the group aggregate.
        KernelCounts lc;
        const u64 cols = guard.cols[l];
        lc.cells = nl[l] * cols;
        lc.alu = cols * (W * 21 + 5) / kLanes;
        lc.loads = cols * W;
        lc.stores = cols * W / kLanes;
        lane.counts += lc;
        ctx.addCounts(lc);
    }
}

} // namespace

bool
batchLaneFits(size_t pattern_len, size_t text_len)
{
    return pattern_len >= 1 && pattern_len <= kBatchMaxPattern &&
           text_len > 0;
}

size_t
bpmBatchScratchBytes(size_t max_pattern)
{
    // Packed quads keep lane_peq and the block states in registers and on
    // the stack, drawing nothing from the arena. Scalar-fallback lanes
    // draw the scalar bpmDistance scratch — the per-symbol peq rows plus
    // the block states — and rewind their frames between lanes, so the
    // group peak is one lane's worth at the largest pattern.
    const size_t blocks = (std::max<size_t>(max_pattern, 1) + 63) / 64;
    return seq::kDnaSymbols * blocks * sizeof(u64) + blocks * 32 + 1024;
}

void
bpmDistanceBatchLanes(std::span<BatchLane> lanes, KernelContext &ctx)
{
    size_t base = 0;
    while (base < lanes.size()) {
        bool quad = base + kLanes <= lanes.size();
        for (size_t l = 0; quad && l < kLanes; ++l)
            quad = batchLaneFits(lanes[base + l].pair->pattern.size(),
                                 lanes[base + l].pair->text.size());
        if (quad) {
            runGroup4(&lanes[base], ctx);
            base += kLanes;
        } else {
            runScalarLane(lanes[base], ctx);
            ++base;
        }
    }
}

} // namespace gmx::simd

#include "hw/rtl_aligner.hh"

#include "common/logging.hh"
#include "gmx/full.hh"
#include "gmx/traceback.hh"

namespace gmx::hw {

namespace {

using align::AlignResult;
using core::DeltaVec;
using core::TileEdges;
using core::TileInput;
using core::TracebackPos;

void
checkLengths(const seq::Sequence &pattern, const seq::Sequence &text,
             unsigned t)
{
    if (pattern.empty() || text.empty() || pattern.size() % t != 0 ||
        text.size() % t != 0) {
        GMX_FATAL("RtlAligner: lengths (%zu, %zu) must be positive "
                  "multiples of T=%u",
                  pattern.size(), text.size(), t);
    }
}

} // namespace

i64
RtlAligner::distance(const seq::Sequence &pattern, const seq::Sequence &text)
{
    checkLengths(pattern, text, t_);
    const size_t gr = pattern.size() / t_;
    const size_t gc = text.size() / t_;

    std::vector<DeltaVec> right(gr);
    i64 dist = static_cast<i64>(pattern.size());
    for (size_t tj = 0; tj < gc; ++tj) {
        DeltaVec dh = DeltaVec::ones(t_);
        for (size_t ti = 0; ti < gr; ++ti) {
            TileInput in;
            in.pattern = pattern.codes().data() + ti * t_;
            in.tp = t_;
            in.text = text.codes().data() + tj * t_;
            in.tt = t_;
            in.dv_in = tj == 0 ? DeltaVec::ones(t_) : right[ti];
            in.dh_in = dh;
            const auto out = ac_.run(in);
            right[ti] = out.dv_out;
            dh = out.dh_out;
        }
        dist += dh.sum(t_);
    }
    return dist;
}

align::AlignResult
RtlAligner::align(const seq::Sequence &pattern, const seq::Sequence &text)
{
    checkLengths(pattern, text, t_);
    const size_t gr = pattern.size() / t_;
    const size_t gc = text.size() / t_;

    std::vector<TileEdges> edges(gr * gc);
    auto at = [&](size_t ti, size_t tj) -> TileEdges & {
        return edges[ti * gc + tj];
    };
    auto tile_input = [&](size_t ti, size_t tj) {
        TileInput in;
        in.pattern = pattern.codes().data() + ti * t_;
        in.tp = t_;
        in.text = text.codes().data() + tj * t_;
        in.tt = t_;
        in.dv_in = tj == 0 ? DeltaVec::ones(t_) : at(ti, tj - 1).v;
        in.dh_in = ti == 0 ? DeltaVec::ones(t_) : at(ti - 1, tj).h;
        return in;
    };

    AlignResult res;
    i64 dist = static_cast<i64>(pattern.size());
    for (size_t tj = 0; tj < gc; ++tj) {
        for (size_t ti = 0; ti < gr; ++ti) {
            const auto out = ac_.run(tile_input(ti, tj));
            at(ti, tj).v = out.dv_out;
            at(ti, tj).h = out.dh_out;
        }
        dist += at(gr - 1, tj).h.sum(t_);
    }
    res.distance = dist;
    res.has_cigar = true;

    // Gate-level tile-wise traceback: the netlist traces each tile from
    // the position the previous tile handed it.
    TracebackPos pos{TracebackPos::Edge::Bottom, t_ - 1};
    res.cigar = core::walkTiles(
        pattern.size(), text.size(), t_, [&](size_t ti, size_t tj) {
            const core::TracebackStep step = tb_.run(tile_input(ti, tj), pos);
            pos = step.next_pos;
            return step;
        });
    return res;
}

} // namespace gmx::hw

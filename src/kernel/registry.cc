#include "kernel/registry.hh"

#include <algorithm>
#include <string>

#include "align/bitap.hh"
#include "align/bpm.hh"
#include "align/bpm_banded.hh"
#include "align/hirschberg.hh"
#include "align/nw.hh"
#include "align/windowed.hh"
#include "common/logging.hh"
#include "engine/budget.hh"
#include "gmx/banded.hh"
#include "gmx/full.hh"
#include "gmx/windowed.hh"
#include "sequence/alphabet.hh"

namespace gmx::kernel {

namespace {

constexpr size_t kWordBits = 64;

size_t
words64(size_t n)
{
    return (n + kWordBits - 1) / kWordBits;
}

// ---- run adapters ---------------------------------------------------------

align::AlignResult
runNw(const seq::SequencePair &pair, const KernelParams &params,
      KernelContext &ctx)
{
    if (!params.want_cigar) {
        align::AlignResult res;
        res.distance = align::nwDistance(pair.pattern, pair.text, ctx);
        return res;
    }
    return align::nwAlign(pair.pattern, pair.text, ctx);
}

align::AlignResult
runHirschberg(const seq::SequencePair &pair, const KernelParams &,
              KernelContext &ctx)
{
    return align::hirschbergAlign(pair.pattern, pair.text, ctx);
}

align::AlignResult
runBpm(const seq::SequencePair &pair, const KernelParams &params,
       KernelContext &ctx)
{
    if (!params.want_cigar) {
        align::AlignResult res;
        res.distance = align::bpmDistance(pair.pattern, pair.text, ctx);
        return res;
    }
    return align::bpmAlign(pair.pattern, pair.text, ctx);
}

align::AlignResult
runBpmBanded(const seq::SequencePair &pair, const KernelParams &params,
             KernelContext &ctx)
{
    if (params.k >= 0)
        return align::bpmBandedAlign(pair.pattern, pair.text, params.k,
                                     params.want_cigar, ctx);
    return align::edlibAlign(pair.pattern, pair.text, params.want_cigar,
                             /*k0=*/64, ctx);
}

align::AlignResult
runBitap(const seq::SequencePair &pair, const KernelParams &params,
         KernelContext &ctx)
{
    if (params.k >= 0) {
        if (!params.want_cigar) {
            align::AlignResult res;
            res.distance =
                align::bitapDistance(pair.pattern, pair.text, params.k, ctx);
            return res;
        }
        return align::bitapAlign(pair.pattern, pair.text, params.k, ctx);
    }
    return align::bitapAlignAuto(pair.pattern, pair.text, /*k0=*/8, ctx);
}

align::AlignResult
runGmxFull(const seq::SequencePair &pair, const KernelParams &params,
           KernelContext &ctx)
{
    if (!params.want_cigar) {
        align::AlignResult res;
        res.distance =
            core::fullGmxDistance(pair.pattern, pair.text, params.tile, ctx);
        return res;
    }
    return core::fullGmxAlign(pair.pattern, pair.text, params.tile, ctx);
}

align::AlignResult
runGmxBanded(const seq::SequencePair &pair, const KernelParams &params,
             KernelContext &ctx)
{
    if (params.k >= 0)
        return core::bandedGmxAlign(pair.pattern, pair.text, params.k,
                                    params.want_cigar, params.tile,
                                    params.enforce_bound, ctx);
    return core::bandedGmxAuto(pair.pattern, pair.text, params.want_cigar,
                               /*k0=*/64, params.tile, ctx);
}

align::AlignResult
runGmxWindowed(const seq::SequencePair &pair, const KernelParams &params,
               KernelContext &ctx)
{
    return core::windowedGmxAlign(pair.pattern, pair.text, params.tile,
                                  {params.window, params.overlap}, ctx);
}

align::AlignResult
runGmxWindowedStream(const seq::SequencePair &pair,
                     const KernelParams &params, KernelContext &ctx)
{
    if (!params.want_cigar) {
        // True streaming mode: the run stream is discarded, so nothing
        // O(n + m) — not even a heap ops vector — is materialized.
        align::AlignResult res;
        res.distance = core::windowedGmxStream(
            pair.pattern, pair.text, params.tile,
            {params.window, params.overlap}, nullptr, ctx);
        return res;
    }
    // A requested CIGAR must be materialized, but the arena footprint is
    // still one window: the stepper's committed runs live on the heap.
    return core::windowedGmxAlign(pair.pattern, pair.text, params.tile,
                                  {params.window, params.overlap}, ctx);
}

// ---- scratch estimators ---------------------------------------------------
//
// Closed-form mirrors of each kernel's arena draws, used for budget
// admission and checked against measured ScratchArena::peakBytes() by
// tests/test_arena.cc. Contract: estimate >= measured peak (admission
// never under-reserves) and estimate <= 4 * peak + 16 KiB (documented
// slack: 16-byte draw rounding, partial-tile rounding, k-doubling
// retries that rewind below the final attempt's footprint).

size_t
nwScratchBytes(size_t n, size_t m, const KernelParams &params)
{
    if (!params.want_cigar)
        return 2 * (m + 1) * sizeof(i64) + ScratchArena::kAlign;
    // Direction matrix plus the rolling i64 value row.
    return engine::nwTracebackBytes(n, m) + (m + 1) * sizeof(i64) +
           2 * ScratchArena::kAlign;
}

size_t
hirschbergScratchBytes(size_t n, size_t m, const KernelParams &)
{
    return engine::hirschbergBytes(n, m);
}

size_t
bpmScratchBytes(size_t n, size_t m, const KernelParams &params)
{
    const size_t b = words64(n);
    // peq + block state + per-column Pv/Mv history + two traceback
    // value columns.
    size_t bytes = seq::kDnaSymbols * b * sizeof(u64) + b * 3 * sizeof(u64);
    if (params.want_cigar)
        bytes += 2 * b * (m + 1) * sizeof(u64) + 2 * (n + 1) * sizeof(i64);
    return bytes + 8 * ScratchArena::kAlign;
}

size_t
bpmBandedScratchBytes(size_t n, size_t m, const KernelParams &params)
{
    // Mirrors bpmBandedAlign's band sizing: the corridor spans k errors
    // on BOTH sides of the diagonal plus the length skew, rounded to
    // blocks with two blocks of slack. With k < 0 the doubling driver can
    // end unbanded, so estimate the full block count.
    const size_t b = words64(n);
    const size_t skew = n > m ? n - m : m - n;
    const size_t w =
        params.k >= 0
            ? std::min(b, (2 * static_cast<size_t>(params.k) + skew + 1 +
                           kWordBits - 1) /
                                  kWordBits +
                              2)
            : b;
    // peq table + band blocks (pv, mv per block).
    size_t bytes = seq::kDnaSymbols * b * sizeof(u64) + w * 2 * sizeof(u64);
    if (params.want_cigar) // pv/mv history, column records, value columns
        bytes += 2 * w * m * sizeof(u64) + m * 2 * sizeof(u64) +
                 2 * (n + 1) * sizeof(i64);
    return bytes + 8 * ScratchArena::kAlign;
}

size_t
bitapScratchBytes(size_t n, size_t m, const KernelParams &params)
{
    const size_t words = words64(n + 1);
    const size_t k =
        params.k >= 0 ? static_cast<size_t>(params.k) : std::max(n, m);
    size_t bytes = seq::kDnaSymbols * words * sizeof(u64) +
                   (2 * (k + 1) + 1) * words * sizeof(u64);
    if (params.want_cigar)
        bytes += (m + 1) * (k + 1) * words * sizeof(u64);
    return bytes + 8 * ScratchArena::kAlign;
}

size_t
gmxFullScratchBytes(size_t n, size_t m, const KernelParams &params)
{
    if (!params.want_cigar) {
        // One rolling tile-row of boundary edges. (Cascade-wide admission
        // — which also covers the Bitap filter tier — is the engine's
        // job; this is the footprint of THIS kernel alone.)
        const size_t t = params.tile;
        const size_t tiles = (std::max(n, m) + t - 1) / t;
        return 3 * tiles * engine::kTileEdgeBytes + ScratchArena::kAlign;
    }
    return engine::fullGmxTracebackBytes(n, m, params.tile);
}

size_t
gmxBandedScratchBytes(size_t n, size_t m, const KernelParams &params)
{
    if (params.k < 0) // doubling can degenerate to the full grid
        return gmxFullScratchBytes(n, m, params);
    const size_t t = params.tile;
    const size_t gr = n / t + 1;
    const size_t gc = m / t + 1;
    const size_t bt = static_cast<size_t>(params.k) / t + 2;
    const size_t w = std::min(gc, 2 * bt + 1);
    size_t bytes = params.want_cigar
                       ? gr * (w * engine::kTileEdgeBytes + 2 * sizeof(void *))
                       : 2 * w * engine::kTileEdgeBytes;
    return bytes + 8 * ScratchArena::kAlign;
}

size_t
gmxWindowedScratchBytes(size_t n, size_t m, const KernelParams &params)
{
    // Scratch is one full-GMX window at a time; the committed ops live
    // on the heap, not the arena.
    return engine::fullGmxTracebackBytes(std::min(n, params.window),
                                         std::min(m, params.window),
                                         params.tile);
}

size_t
gmxWindowedStreamScratchBytes(size_t, size_t, const KernelParams &params)
{
    // Length-independent by construction: the stepper holds one W x W
    // window of Full(GMX) state at a time and rewinds it per window; the
    // bounded run buffer and any caller-requested CIGAR live on the
    // heap, not the arena. The n/m parameters are deliberately ignored —
    // that IS the contract the streamed-tier admission relies on.
    return engine::windowedStreamBytes(params.window, params.tile);
}

// Per-kernel admission length caps (largest max(n, m) accepted; 0 =
// unlimited). Chosen where each kernel's state stops being a sane
// single-request footprint: quadratic-traceback kernels first, then the
// bit-parallel/tiled kernels whose per-column state is linear but whose
// traceback history is O(n * m / w). The windowed drivers stream and
// stay uncapped; Hirschberg is O(min(n, m)) memory and stays uncapped.
constexpr size_t kCapQuadratic = 128 * 1024;
constexpr size_t kCapLinearState = 256 * 1024;
constexpr size_t kCapBanded = 512 * 1024;

} // namespace

AlignerRegistry::AlignerRegistry()
{
    // clang-format off
    add({"nw", "scalar Needleman-Wunsch reference (full DP matrix)",
         /*traceback=*/true, /*distance_only=*/true, /*banded=*/false,
         /*exact=*/true, /*cigar_contract=*/"nw-diag-del-ins",
         runNw, nwScratchBytes, /*streaming=*/false, kCapQuadratic});
    add({"hirschberg", "divide-and-conquer NW in O(min(n,m)) memory",
         true, false, false, true, nullptr,
         runHirschberg, hirschbergScratchBytes, false, /*max_len=*/0});
    add({"bpm", "Myers bit-parallel unbanded edit distance",
         true, true, false, true, "bpm-col",
         runBpm, bpmScratchBytes, false, kCapLinearState});
    add({"bpm-banded", "Edlib-style block-banded Myers with k-doubling",
         true, true, true, true, "edlib-band",
         runBpmBanded, bpmBandedScratchBytes, false, kCapBanded});
    add({"bitap", "GenASM bitap with k+1 state vectors",
         true, true, true, true, nullptr,
         runBitap, bitapScratchBytes, false, kCapLinearState});
    add({"gmx-full", "tile-wise GMX DP over the full grid",
         true, true, false, true, "gmx-tb",
         runGmxFull, gmxFullScratchBytes, false, kCapLinearState});
    add({"gmx-banded", "GMX tiles restricted to a Ukkonen tile band",
         true, true, true, true, "gmx-tb",
         runGmxBanded, gmxBandedScratchBytes, false, kCapBanded});
    add({"gmx-windowed", "Darwin-style overlapping windows of GMX tiles",
         true, false, false, /*exact=*/false, nullptr,
         runGmxWindowed, gmxWindowedScratchBytes, false, /*max_len=*/0});
    add({"gmx-windowed-stream",
         "streaming windowed GMX: O(window) memory for Mbp-scale pairs",
         true, true, false, /*exact=*/false, nullptr,
         runGmxWindowedStream, gmxWindowedStreamScratchBytes,
         /*streaming=*/true, /*max_len=*/0});
    // clang-format on
}

Status
checkKernelLength(const AlignerDescriptor &d, size_t n, size_t m)
{
    if (d.max_len == 0)
        return Status();
    const size_t longer = std::max(n, m);
    if (longer <= d.max_len)
        return Status();
    return Status::invalidInput(detail::format(
        "kernel '%s' caps pair length at %zu bases (got %zu); route "
        "long pairs to a streaming kernel",
        d.name, d.max_len, longer));
}

AlignerRegistry &
AlignerRegistry::instance()
{
    static AlignerRegistry registry;
    return registry;
}

void
AlignerRegistry::add(const AlignerDescriptor &d)
{
    GMX_ASSERT(d.name && d.run && d.scratch_bytes,
               "descriptor must be fully populated");
    if (find(d.name))
        GMX_FATAL("aligner '%s' registered twice", d.name);
    table_.push_back(d);
}

const AlignerDescriptor *
AlignerRegistry::find(std::string_view name) const
{
    for (const AlignerDescriptor &d : table_)
        if (name == d.name)
            return &d;
    return nullptr;
}

const AlignerDescriptor &
AlignerRegistry::require(std::string_view name) const
{
    if (const AlignerDescriptor *d = find(name))
        return *d;
    std::string known;
    for (const AlignerDescriptor &d : table_) {
        if (!known.empty())
            known += ", ";
        known += d.name;
    }
    GMX_FATAL("unknown aligner '%.*s' (known: %s)",
              static_cast<int>(name.size()), name.data(), known.c_str());
}

std::vector<const AlignerDescriptor *>
AlignerRegistry::tracebackCapable() const
{
    std::vector<const AlignerDescriptor *> out;
    for (const AlignerDescriptor &d : table_)
        if (d.supports_traceback)
            out.push_back(&d);
    return out;
}

align::PairAligner
makeAligner(std::string_view name, const KernelParams &params)
{
    const AlignerDescriptor &d = AlignerRegistry::instance().require(name);
    return [&d, params](const seq::SequencePair &pair) {
        thread_local ScratchArena arena;
        arena.reset();
        KernelContext ctx(CancelToken{}, nullptr, &arena);
        return d.run(pair, params, ctx);
    };
}

} // namespace gmx::kernel

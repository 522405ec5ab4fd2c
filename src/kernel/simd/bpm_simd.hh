/**
 * @file
 * The inter-pair Myers batcher: the one SIMD kernel.
 *
 * bpmDistanceBatchLanes packs four independent short patterns one per
 * 64-bit vector lane and runs their edit-distance recurrences side by
 * side, with NO cross-lane carries. Multi-block patterns chain their
 * blocks through per-lane hin/hout bit vectors, so the serial chain of a
 * column is as short as the scalar kernel's and the vector buys four
 * pairs per column step. Pairs that do not fit a lane fall back to the
 * scalar bpmDistance. Distances equal the scalar kernel's exactly.
 *
 * The engine's lane packer is the only serving caller; it runs the
 * cascade's distance tier for fused distance-only requests through this
 * entry point when kernel::simdDispatchEnabled() allows it.
 *
 * This translation unit is the only one compiled with -mavx2 (when CMake
 * detects support); on other builds it uses the portable 4x64-bit vector
 * backend of simd.hh, with the same results.
 */

#ifndef GMX_KERNEL_SIMD_BPM_SIMD_HH
#define GMX_KERNEL_SIMD_BPM_SIMD_HH

#include <span>

#include "align/types.hh"
#include "kernel/context.hh"
#include "sequence/sequence.hh"

namespace gmx::simd {

/** Whether the SIMD kernel TU was compiled against real AVX2 (vs the
 *  portable fallback backend). */
bool builtWithAvx2();

/** Largest per-lane block count / pattern the inter-pair batcher packs. */
constexpr size_t kBatchMaxBlocks = 8;
constexpr size_t kBatchMaxPattern = kBatchMaxBlocks * 64;

/** Pairs per packed group (one per 64-bit vector lane). Mirrored here so
 *  engine-side packers don't need the vector vocabulary header. */
constexpr size_t kBatchLanes = 4;

/** True when a pattern_len x text_len pair fits a batch lane (pattern
 *  1..kBatchMaxPattern bp, text non-empty); everything else takes the
 *  scalar fallback. */
bool batchLaneFits(size_t pattern_len, size_t text_len);

/**
 * One request's slot in a packed distance batch: the inputs it brings
 * (pair, its own cancel token) and the per-lane outputs the group call
 * fills. Giving every lane its own token and counts is what lets fused
 * engine requests keep per-request deadline semantics and per-request
 * work attribution through a shared kernel invocation.
 */
struct BatchLane
{
    const seq::SequencePair *pair = nullptr;
    CancelToken cancel{}; //!< per-lane deadline/cancel, polled every
                          //!< kCancelPollStride columns

    // Outputs.
    i64 distance = align::kNoAlignment; //!< exact distance when status ok
    Status status{};                    //!< Cancelled / DeadlineExceeded
    KernelCounts counts{};              //!< this lane's own work
};

/**
 * Edit distances for @p lanes with per-lane KernelContext semantics.
 * Groups of four consecutive batchable lanes (batchLaneFits) run packed
 * one-per-lane; leftovers and oversize lanes fall back to the scalar
 * bpmDistance one lane at a time. Distances equal the scalar kernel's
 * exactly.
 *
 * Per-lane semantics: each lane's token is polled inside the packed
 * column loop; a stopped lane records its Status and is masked out of
 * the score accumulator while its siblings run to completion. Work is
 * attributed to each lane's own counts (cells are exact: that lane's
 * pattern rows times the columns it consumed before finishing or being
 * stopped). @p ctx supplies the scratch arena, the setup/kernel phase
 * timers, and an optional aggregate counts sink; its own cancel token
 * is NOT consulted — cancellation is per lane.
 */
void bpmDistanceBatchLanes(std::span<BatchLane> lanes, KernelContext &ctx);

/**
 * Scratch-arena footprint bound for one bpmDistanceBatchLanes group whose
 * largest pattern is @p max_pattern bp. Packed quads keep all state in
 * registers/stack; the bound covers the scalar-fallback lanes, which
 * rewind their frames between lanes so the group peak is one lane's
 * worth. The engine reserves this once per group instead of per lane.
 */
size_t bpmBatchScratchBytes(size_t max_pattern);

} // namespace gmx::simd

#endif // GMX_KERNEL_SIMD_BPM_SIMD_HH

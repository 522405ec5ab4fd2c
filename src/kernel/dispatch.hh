/**
 * @file
 * Runtime gate for the one SIMD kernel, the inter-pair batcher.
 *
 * The registry holds scalar kernels only. The engine's lane packer runs
 * the cascade's filter tier for fused distance-only requests through
 * simd::bpmDistanceBatchLanes when simdDispatchEnabled() says so: the
 * binary carries AVX2 code, the CPU supports it, and GMX_FORCE_SCALAR is
 * not set. The batcher's distances equal the scalar kernel's, so the
 * gate is invisible to results — only to throughput.
 *
 * GMX_FORCE_SCALAR: any non-empty value other than "0" means "do not
 * lane-pack" (read once, cached). setForceScalarForTest() is the
 * in-process override for tests that compare both paths.
 */

#ifndef GMX_KERNEL_DISPATCH_HH
#define GMX_KERNEL_DISPATCH_HH

#include <string_view>

namespace gmx::kernel {

/** Runtime CPU support for AVX2 (false on non-x86 builds). */
bool cpuHasAvx2();

/** GMX_FORCE_SCALAR env override (cached at first call), unless a test
 *  override is active. */
bool forceScalar();

/** Test seam: 1 forces scalar, 0 forces SIMD-eligible, -1 re-follows the
 *  environment variable. */
void setForceScalarForTest(int force);

/** True when the engine lane-packs distance batches through the
 *  inter-pair batcher by default (EngineConfig FilterBatching::Auto):
 *  compiled-in AVX2 + runtime CPU support + not forced scalar. The
 *  portable vector backend is correct but loses to the scalar kernel, so
 *  Auto only packs on real AVX2; tests force packing on with
 *  FilterBatching::On. */
bool simdDispatchEnabled();

/** Returns @p name unchanged: there are no kernel variants left to pick
 *  between. Nothing in the library calls it; it stays only because the
 *  serving benchmark (perfbench/) still resolves names through it, and
 *  the next change to that benchmark removes it (ROADMAP item 9). */
std::string_view dispatchKernel(std::string_view name);

} // namespace gmx::kernel

#endif // GMX_KERNEL_DISPATCH_HH

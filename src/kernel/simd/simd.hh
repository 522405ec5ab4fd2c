/**
 * @file
 * 256-bit SIMD portability shim for the bit-parallel alignment kernels.
 *
 * Two backends behind one vocabulary of 4x64-bit vector operations:
 *
 *  - AVX2 (compiled when the TU is built with -mavx2): thin wrappers over
 *    the corresponding intrinsics.
 *  - Portable fallback: the same operations as plain C++ loops over a
 *    4-word struct, so the batcher compiles and stays testable on any
 *    architecture. A NEON port is this header again with a third backend
 *    (two 128-bit halves per vector); the batcher never names an ISA.
 *
 * Every arithmetic op is per lane (vAdd64, vShl1Lanes, vShrVar): the
 * inter-pair batcher runs four independent 64-bit recurrences, one short
 * pattern per lane, and carries must NOT cross lanes. The only cross-lane
 * ops are the unpack/concat shuffles that transpose the per-column match
 * masks into block-major vectors.
 */

#ifndef GMX_KERNEL_SIMD_SIMD_HH
#define GMX_KERNEL_SIMD_SIMD_HH

#include <cstddef>

#include "common/types.hh"

#if defined(__AVX2__)
#define GMX_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace gmx::simd {

/** 64-bit lanes per vector. */
constexpr size_t kLanes = 4;

/** True when this translation unit was compiled against real AVX2. */
constexpr bool
compiledWithAvx2()
{
#if defined(GMX_SIMD_AVX2)
    return true;
#else
    return false;
#endif
}

#if defined(GMX_SIMD_AVX2)

using V = __m256i;

inline V
vLoad(const u64 *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}
inline V
vZero()
{
    return _mm256_setzero_si256();
}
inline V
vOnes()
{
    return _mm256_set1_epi64x(-1);
}
inline V
vSet1(u64 x)
{
    return _mm256_set1_epi64x(static_cast<long long>(x));
}
/** Lanes in memory order: lane 0 is the low 64 bits of the vector. */
inline V
vSet(u64 l0, u64 l1, u64 l2, u64 l3)
{
    return _mm256_set_epi64x(static_cast<long long>(l3),
                             static_cast<long long>(l2),
                             static_cast<long long>(l1),
                             static_cast<long long>(l0));
}
inline V
vAnd(V a, V b)
{
    return _mm256_and_si256(a, b);
}
inline V
vOr(V a, V b)
{
    return _mm256_or_si256(a, b);
}
inline V
vXor(V a, V b)
{
    return _mm256_xor_si256(a, b);
}
inline V
vNot(V a)
{
    return _mm256_xor_si256(a, vOnes());
}
inline V
vAdd64(V a, V b)
{
    return _mm256_add_epi64(a, b);
}
inline V
vSub64(V a, V b)
{
    return _mm256_sub_epi64(a, b);
}
inline V
vShl1Lanes(V a)
{
    return _mm256_slli_epi64(a, 1);
}
inline V
vShr63Lanes(V a)
{
    return _mm256_srli_epi64(a, 63);
}
/** Per-lane variable right shift (counts < 64). */
inline V
vShrVar(V a, V counts)
{
    return _mm256_srlv_epi64(a, counts);
}
/** Per-lane signed compare: all-ones where a > b. */
inline V
vGt64(V a, V b)
{
    return _mm256_cmpgt_epi64(a, b);
}
inline u64
vLane(V a, unsigned lane)
{
    switch (lane & 3u) {
    case 0:
        return static_cast<u64>(_mm256_extract_epi64(a, 0));
    case 1:
        return static_cast<u64>(_mm256_extract_epi64(a, 1));
    case 2:
        return static_cast<u64>(_mm256_extract_epi64(a, 2));
    default:
        return static_cast<u64>(_mm256_extract_epi64(a, 3));
    }
}
/** Half-wise 64-bit interleave: [a0,b0,a2,b2] / [a1,b1,a3,b3]. */
inline V
vUnpackLo64(V a, V b)
{
    return _mm256_unpacklo_epi64(a, b);
}
inline V
vUnpackHi64(V a, V b)
{
    return _mm256_unpackhi_epi64(a, b);
}
/** Concatenate 128-bit halves: [a.lo, b.lo] / [a.hi, b.hi]. */
inline V
vConcatLo128(V a, V b)
{
    return _mm256_permute2x128_si256(a, b, 0x20);
}
inline V
vConcatHi128(V a, V b)
{
    return _mm256_permute2x128_si256(a, b, 0x31);
}

#else // ---- portable fallback backend -------------------------------------

struct V
{
    u64 l[kLanes];
};

inline V
vLoad(const u64 *p)
{
    V v;
    for (size_t i = 0; i < kLanes; ++i)
        v.l[i] = p[i];
    return v;
}
inline V
vZero()
{
    return V{{0, 0, 0, 0}};
}
inline V
vOnes()
{
    return V{{~u64{0}, ~u64{0}, ~u64{0}, ~u64{0}}};
}
inline V
vSet1(u64 x)
{
    return V{{x, x, x, x}};
}
inline V
vSet(u64 l0, u64 l1, u64 l2, u64 l3)
{
    return V{{l0, l1, l2, l3}};
}
inline V
vAnd(V a, V b)
{
    V v;
    for (size_t i = 0; i < kLanes; ++i)
        v.l[i] = a.l[i] & b.l[i];
    return v;
}
inline V
vOr(V a, V b)
{
    V v;
    for (size_t i = 0; i < kLanes; ++i)
        v.l[i] = a.l[i] | b.l[i];
    return v;
}
inline V
vXor(V a, V b)
{
    V v;
    for (size_t i = 0; i < kLanes; ++i)
        v.l[i] = a.l[i] ^ b.l[i];
    return v;
}
inline V
vNot(V a)
{
    V v;
    for (size_t i = 0; i < kLanes; ++i)
        v.l[i] = ~a.l[i];
    return v;
}
inline V
vAdd64(V a, V b)
{
    V v;
    for (size_t i = 0; i < kLanes; ++i)
        v.l[i] = a.l[i] + b.l[i];
    return v;
}
inline V
vSub64(V a, V b)
{
    V v;
    for (size_t i = 0; i < kLanes; ++i)
        v.l[i] = a.l[i] - b.l[i];
    return v;
}
inline V
vShl1Lanes(V a)
{
    V v;
    for (size_t i = 0; i < kLanes; ++i)
        v.l[i] = a.l[i] << 1;
    return v;
}
inline V
vShr63Lanes(V a)
{
    V v;
    for (size_t i = 0; i < kLanes; ++i)
        v.l[i] = a.l[i] >> 63;
    return v;
}
inline V
vShrVar(V a, V counts)
{
    V v;
    for (size_t i = 0; i < kLanes; ++i)
        v.l[i] = a.l[i] >> (counts.l[i] & 63);
    return v;
}
inline V
vGt64(V a, V b)
{
    V v;
    for (size_t i = 0; i < kLanes; ++i)
        v.l[i] = static_cast<i64>(a.l[i]) > static_cast<i64>(b.l[i])
                     ? ~u64{0}
                     : 0;
    return v;
}
inline u64
vLane(V a, unsigned lane)
{
    return a.l[lane & 3u];
}
inline V
vUnpackLo64(V a, V b)
{
    return V{{a.l[0], b.l[0], a.l[2], b.l[2]}};
}
inline V
vUnpackHi64(V a, V b)
{
    return V{{a.l[1], b.l[1], a.l[3], b.l[3]}};
}
inline V
vConcatLo128(V a, V b)
{
    return V{{a.l[0], a.l[1], b.l[0], b.l[1]}};
}
inline V
vConcatHi128(V a, V b)
{
    return V{{a.l[2], a.l[3], b.l[2], b.l[3]}};
}

#endif // backend selection

} // namespace gmx::simd

#endif // GMX_KERNEL_SIMD_SIMD_HH

/**
 * @file
 * The monotonic atomic max behind every high-water-mark gauge.
 */

#ifndef GMX_COMMON_ATOMIC_HH
#define GMX_COMMON_ATOMIC_HH

#include <atomic>

namespace gmx {

/** Raise @p slot to at least @p value (relaxed: it is a statistic). */
template <class T>
void
atomicMax(std::atomic<T> &slot, T value)
{
    T cur = slot.load(std::memory_order_relaxed);
    while (value > cur && !slot.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
}

} // namespace gmx

#endif // GMX_COMMON_ATOMIC_HH

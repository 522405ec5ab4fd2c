#include "engine/budget.hh"

#include "common/atomic.hh"

namespace gmx::engine {

namespace {

size_t
tilesAcross(size_t bases, unsigned tile)
{
    return (bases + tile - 1) / tile;
}

} // namespace

size_t
fullGmxTracebackBytes(size_t n, size_t m, unsigned tile)
{
    if (n == 0 || m == 0)
        return n + m; // trivial boundary CIGAR only
    // Edge matrix: rows * cols tile-edge records; plus the backwards op
    // buffer of the traceback (one byte per op, at most n + m ops).
    return tilesAcross(n, tile) * tilesAcross(m, tile) * kTileEdgeBytes +
           (n + m);
}

size_t
hirschbergBytes(size_t n, size_t m)
{
    // Two i64 DP rows per recursion level (levels share the buffers'
    // peak), plus the op buffer. The rows span the TEXT — lastRow in
    // hirschberg.cc allocates row(m + 1) whichever side is shorter — so
    // a short-pattern/long-text pair still costs O(m) bytes.
    return 2 * (m + 1) * sizeof(i64) + (n + m);
}

size_t
nwTracebackBytes(size_t n, size_t m)
{
    return (n + 1) * (m + 1); // one direction byte per DP cell
}

size_t
windowedStreamBytes(size_t window, unsigned tile)
{
    // One window's Full(GMX) traceback (W x W edge matrix + 2W ops),
    // the two window substrings the stepper slices per step, and the
    // sealed-run emit buffer (2W + 1 runs of 16 bytes). The window
    // kernel's scratch dies with each step's arena frame, so this is
    // the traversal's peak no matter how long the pair is.
    return fullGmxTracebackBytes(window, window, tile) + 2 * window +
           (2 * window + 1) * 16 + 1024;
}

bool
MemoryBudget::tryReserve(size_t bytes)
{
    if (!enabled())
        return true;
    size_t cur = reserved_.load(std::memory_order_relaxed);
    do {
        if (cur + bytes > limit_ || cur + bytes < cur)
            return false;
    } while (!reserved_.compare_exchange_weak(cur, cur + bytes,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed));
    atomicMax(peak_, cur + bytes);
    return true;
}

void
MemoryBudget::release(size_t bytes)
{
    if (!enabled())
        return;
    reserved_.fetch_sub(bytes, std::memory_order_acq_rel);
}

} // namespace gmx::engine

/**
 * @file
 * Engine-wide memory budget and per-request footprint estimation.
 *
 * Scrooge's lesson (PAPERS.md) applied to the engine: traceback memory,
 * not compute, is what an adversarial workload exhausts first. Full(GMX)
 * stores ceil(n/T)*ceil(m/T) tile-edge records, so one 1 Mbp pair at
 * T=32 wants ~31 GB of edge matrix. The MemoryBudget is a concurrent
 * admission gate over the sum of estimated footprints of in-flight
 * requests: a reservation either fits under the cap or fails, in which
 * case the engine downgrades the request to a memory-frugal traceback
 * (Hirschberg, O(min(n,m)) bytes) or rejects it with ResourceExhausted.
 *
 * Estimates are deliberately analytic (no allocation probing): they are
 * the same closed forms the kernels' own storage uses, so the gate caps
 * real RSS up to small constant factors.
 */

#ifndef GMX_ENGINE_BUDGET_HH
#define GMX_ENGINE_BUDGET_HH

#include <algorithm>
#include <atomic>

#include "common/types.hh"

namespace gmx::engine {

/** Bytes of one stored tile edge (TileEdges: two DeltaVec of two u64). */
inline constexpr size_t kTileEdgeBytes = 32;

/**
 * The cascade's auto band budget for an (n, m) pair:
 * max(8, longer/16, skew + 4). A traceback whose exact distance is at
 * most 2k runs the banded tier; the skew term keeps a skewed pair, whose
 * distance is at least |n-m|, on that route.
 *
 * Defined here, next to the footprint estimators: admission sizes the
 * banded tier's scratch at band 2k from the same k the cascade runs
 * with, because planRoute puts that band in the banded tier's parameters.
 */
inline i64
cascadeAutoFilterK(size_t n, size_t m)
{
    const i64 longer = static_cast<i64>(std::max(n, m));
    const i64 skew = static_cast<i64>(n > m ? n - m : m - n);
    return std::max<i64>({8, longer / 16, skew + 4});
}

/** Full(GMX) traceback footprint: the whole tile-edge matrix plus ops. */
size_t fullGmxTracebackBytes(size_t n, size_t m, unsigned tile);

/** Hirschberg traceback footprint: a few DP rows plus the ops buffer. */
size_t hirschbergBytes(size_t n, size_t m);

/** NW traceback footprint: the (n+1) x (m+1) direction matrix. */
size_t nwTracebackBytes(size_t n, size_t m);

/**
 * Streaming Windowed(GMX) footprint: one W x W Full(GMX) window (edge
 * matrix + window ops + window substrings) plus the stepper's bounded
 * run buffer. Deliberately independent of the pair lengths — this is
 * the closed form that lets the budget admit a 1 Mbp pair against the
 * same reservation as a 10 kbp one.
 */
size_t windowedStreamBytes(size_t window, unsigned tile);

/**
 * Concurrent byte-budget. tryReserve() admits a request only when the
 * total of outstanding reservations stays within the limit; a limit of 0
 * disables the gate. Lock-free (single CAS loop), so it sits on the
 * per-request dispatch path without serializing workers.
 */
class MemoryBudget
{
  public:
    explicit MemoryBudget(size_t limit_bytes = 0) : limit_(limit_bytes) {}

    bool enabled() const { return limit_ != 0; }
    size_t limit() const { return limit_; }
    size_t reserved() const
    {
        return reserved_.load(std::memory_order_relaxed);
    }
    size_t peak() const { return peak_.load(std::memory_order_relaxed); }

    /**
     * Reserve @p bytes if they fit (always succeeds when disabled).
     * Oversized single requests (bytes > limit) never fit.
     */
    bool tryReserve(size_t bytes);

    /** Return @p bytes reserved earlier. */
    void release(size_t bytes);

  private:
    size_t limit_;
    std::atomic<size_t> reserved_{0};
    std::atomic<size_t> peak_{0};
};

/**
 * RAII reservation: releases on destruction. Movable so a worker can
 * hold it across the kernel call it gates.
 */
class MemoryReservation
{
  public:
    MemoryReservation() = default;
    MemoryReservation(MemoryBudget *budget, size_t bytes)
        : budget_(budget), bytes_(bytes)
    {}
    MemoryReservation(MemoryReservation &&o) noexcept
        : budget_(o.budget_), bytes_(o.bytes_)
    {
        o.budget_ = nullptr;
        o.bytes_ = 0;
    }
    MemoryReservation &operator=(MemoryReservation &&o) noexcept
    {
        if (this != &o) {
            reset();
            budget_ = o.budget_;
            bytes_ = o.bytes_;
            o.budget_ = nullptr;
            o.bytes_ = 0;
        }
        return *this;
    }
    MemoryReservation(const MemoryReservation &) = delete;
    MemoryReservation &operator=(const MemoryReservation &) = delete;
    ~MemoryReservation() { reset(); }

    void reset()
    {
        if (budget_)
            budget_->release(bytes_);
        budget_ = nullptr;
        bytes_ = 0;
    }

    size_t bytes() const { return bytes_; }

  private:
    MemoryBudget *budget_ = nullptr;
    size_t bytes_ = 0;
};

} // namespace gmx::engine

#endif // GMX_ENGINE_BUDGET_HH

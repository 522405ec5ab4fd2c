/**
 * @file
 * Deterministic fault-injection harness for the engine.
 *
 * Chaos testing a concurrent pipeline is only useful when a failing run
 * can be replayed, so every injection decision here is a pure function
 * of (seed, injection point, nth call to that point): the nth poll of a
 * point injects iff splitmix64(seed, point, n) falls under the armed
 * probability. Thread interleaving changes which worker draws which n,
 * but the multiset of injected events per point is fixed by the seed.
 *
 * The hooks compile to constant-false / no-op unless the build defines
 * GMX_FAULT_INJECTION (CMake option of the same name), so production
 * builds carry zero overhead. Call sites use the macros:
 *
 *   if (GMX_INJECT_FAULT(faults::Point::QueueFull)) ...  // force a path
 *   GMX_FAULT_STALL();                                   // maybe sleep
 *
 * Injection points:
 *   AllocFail   — a simulated allocation failure before kernel work;
 *                 the engine must surface ResourceExhausted.
 *   WorkerStall — an engine worker sleeps after popping a batch, before
 *                 serving it; siblings must keep the engine live (no
 *                 deadlock, no starvation).
 *   QueueFull   — the bounded queue reports full spuriously; the armed
 *                 backpressure policy must engage.
 *   TaskError   — a spurious exception from inside a task; the engine
 *                 must surface a typed Internal status, never terminate.
 *   AcceptFail  — an accepted serve connection fails immediately (as if
 *                 the client vanished between accept and handshake); the
 *                 align server must count it and keep accepting.
 *   FrameTooLarge — the align server's frame-size check trips spuriously;
 *                 the client must receive a typed protocol error frame.
 *   SlowClient  — the align server's response writer stalls (a client
 *                 that stops draining its socket); per-connection
 *                 in-flight bounds must hold the line.
 *   ShardWedge  — an engine worker wedges for wedge_duration before the
 *                 kernel (a sick shard); the router's circuit breaker
 *                 must open and route around it.
 *   RetryStorm  — the align client's transport drops a connection at a
 *                 frame boundary; the retry layer must resubmit only
 *                 unanswered pairs, and the dedup cache must absorb the
 *                 duplicates.
 *   ClockSkew   — the server's monotonic clock reads jump by skew;
 *                 quota refill and deadline-budget arithmetic must stay
 *                 sane (no negative budgets, ledger still balances).
 */

#ifndef GMX_ENGINE_FAULTS_HH
#define GMX_ENGINE_FAULTS_HH

#include <array>
#include <chrono>

#include "common/types.hh"

namespace gmx::engine::faults {

enum class Point : unsigned {
    AllocFail = 0,
    WorkerStall,
    QueueFull,
    TaskError,
    AcceptFail,
    FrameTooLarge,
    SlowClient,
    ShardWedge,
    RetryStorm,
    ClockSkew,
};

inline constexpr unsigned kPointCount = 10;

/** Human-readable point name ("alloc_fail", ...). */
const char *pointName(Point p);

/** A seeded chaos schedule. */
struct Plan
{
    u64 seed = 1;

    /** Per-point injection probability in [0, 1]; 0 disarms the point. */
    std::array<double, kPointCount> probability{};

    /** How long an injected WorkerStall sleeps. */
    std::chrono::microseconds stall_duration{2000};

    /** How long an injected ShardWedge pins a worker (sick shard). */
    std::chrono::microseconds wedge_duration{20000};

    /** Offset an injected ClockSkew adds to monotonic clock reads. */
    std::chrono::microseconds skew{-3000000};

    Plan &with(Point p, double prob)
    {
        probability[static_cast<unsigned>(p)] = prob;
        return *this;
    }
};

/** Install @p plan and reset all counters. Thread-safe via disarm-first. */
void arm(const Plan &plan);

/** Stop injecting (hooks return false immediately). */
void disarm();

bool armed();

/**
 * Deterministic decision for the next call at @p p. Cheap when disarmed
 * (one relaxed atomic load). Counts both calls and injections.
 */
bool shouldInject(Point p);

/** Sleep for the plan's stall duration iff WorkerStall fires. */
void maybeStall();

/** Sleep for the plan's stall duration iff @p p fires (SlowClient etc.).
 *  ShardWedge sleeps the plan's wedge_duration instead. */
void maybeStallAt(Point p);

/** The plan's skew iff ClockSkew fires, else zero. */
std::chrono::microseconds maybeSkew();

/** Calls to / injections at @p p since the last arm(). */
u64 callCount(Point p);
u64 injectedCount(Point p);

} // namespace gmx::engine::faults

#ifdef GMX_FAULT_INJECTION
#define GMX_INJECT_FAULT(point) (::gmx::engine::faults::shouldInject(point))
#define GMX_FAULT_STALL() (::gmx::engine::faults::maybeStall())
#define GMX_FAULT_STALL_AT(point) (::gmx::engine::faults::maybeStallAt(point))
#define GMX_FAULT_SKEW() (::gmx::engine::faults::maybeSkew())
#else
#define GMX_INJECT_FAULT(point) (false)
#define GMX_FAULT_STALL() ((void)0)
#define GMX_FAULT_STALL_AT(point) ((void)0)
#define GMX_FAULT_SKEW() (::std::chrono::microseconds{0})
#endif

#endif // GMX_ENGINE_FAULTS_HH

/**
 * @file
 * KernelContext: the one argument every exact alignment kernel takes.
 *
 * PRs 1–4 threaded each engine concern — CancelGate, KernelCounts,
 * deadlines, scratch memory — through kernel signatures one at a time,
 * leaving eight divergent (gate, counts, ...) parameter tails. The
 * context bundles them:
 *
 *  - cancellation: poll() is the shared amortized gate (one branch per
 *    call, token consulted every kCancelPollStride calls); checkNow()
 *    consults immediately for coarse-grained loops (one call per
 *    window).
 *  - counts: addCounts()/countsSink() feed an optional KernelCounts.
 *  - scratch: arena() is the per-worker ScratchArena; a context built
 *    without one lazily owns a private arena so standalone callers
 *    (tests, benches, examples) need no setup.
 *  - phase timers: kernels bracket their work with beginSetup() /
 *    beginKernel() / donePhases(); the engine reads takePhases() after
 *    each attempt to report setup vs pure-kernel time separately and to
 *    compute GCUPS from kernel time only.
 *
 * Contexts are cheap, single-threaded, and per-request: build one per
 * alignment (or reuse across a cascade's attempts), never share across
 * threads.
 */

#ifndef GMX_KERNEL_CONTEXT_HH
#define GMX_KERNEL_CONTEXT_HH

#include <chrono>
#include <memory>
#include <span>

#include "common/cancel.hh"
#include "kernel/arena.hh"
#include "kernel/counts.hh"

namespace gmx {

/**
 * Arena-frame-scoped reuse hook for the Myers Peq match-mask table.
 *
 * A driver that runs several Myers kernels on the SAME pattern (a replay
 * of one request's kernel calls, say) would otherwise rebuild the
 * per-symbol masks for each. Such a driver places one PeqMemo on the
 * context; align::acquirePeq() then allocates the table OUTSIDE the
 * kernel's arena frame (so later rewinds don't invalidate it) and returns
 * the cached span whenever the pattern identity, length, and word stride
 * match.
 *
 * Lifetime: the memo and its span die with the request — the owner must
 * not outlive the arena reset, and a fresh memo starts every request.
 */
struct PeqMemo
{
    const void *key = nullptr;  //!< identity of the pattern's code array
    size_t n = 0;               //!< pattern length when built
    size_t stride = 0;          //!< words per symbol row
    std::span<const u64> table; //!< arena-backed memoized table
    u64 builds = 0;             //!< tables built through this memo
    u64 hits = 0;               //!< rebuilds avoided
};

class KernelContext
{
  public:
    using Clock = std::chrono::steady_clock;

    KernelContext() = default;

    explicit KernelContext(CancelToken cancel, KernelCounts *counts = nullptr,
                           ScratchArena *arena = nullptr)
        : cancel_(std::move(cancel)), counts_(counts), arena_(arena),
          stride_(cancel_.active() ? kCancelPollStride : 0)
    {}

    KernelContext(const KernelContext &) = delete;
    KernelContext &operator=(const KernelContext &) = delete;

    // ------------------------------------------------------ cancellation

    const CancelToken &cancel() const { return cancel_; }

    /**
     * Amortized cancellation poll: call once per row/tile. Costs one
     * branch when the token is inactive; consults the token every
     * kCancelPollStride calls otherwise. Throws StatusError(Cancelled |
     * DeadlineExceeded) when a stop was requested.
     */
    void poll()
    {
        if (stride_ == 0)
            return;
        if (++polls_ < stride_)
            return;
        polls_ = 0;
        cancel_.throwIfStopped();
    }

    /** Immediate check, for loops whose iterations are already coarse. */
    void checkNow() const { cancel_.throwIfStopped(); }

    // ------------------------------------------------------------ counts

    /** Destination for work counters; may be null (counting disabled). */
    KernelCounts *countsSink() const { return counts_; }

    void addCounts(const KernelCounts &c)
    {
        if (counts_)
            *counts_ += c;
    }

    // ---------------------------------------------------------- peq memo

    /** Cross-retry Peq cache, or null (no memoization). */
    PeqMemo *peqMemo() const { return peq_memo_; }
    void setPeqMemo(PeqMemo *memo) { peq_memo_ = memo; }

    // ------------------------------------------------------------ scratch

    /** Per-worker scratch arena; lazily owned when none was injected. */
    ScratchArena &arena()
    {
        if (arena_)
            return *arena_;
        if (!owned_arena_)
            owned_arena_ = std::make_unique<ScratchArena>();
        return *owned_arena_;
    }

    // ------------------------------------------------------ phase timers

    struct Phases
    {
        i64 setup_us = 0;  //!< mask/peq/tile-grid build + allocation
        i64 kernel_us = 0; //!< DP loop + traceback proper
    };

    /** Start (or switch to) the setup phase. */
    void beginSetup() { switchPhase(Phase::Setup); }
    /** Switch to the pure-kernel phase (DP loop + traceback). */
    void beginKernel() { switchPhase(Phase::Kernel); }
    /** Stop the running phase timer (kernel epilogue). */
    void donePhases() { switchPhase(Phase::None); }

    /**
     * Fold a nested sub-context's phase totals into this context. Group
     * kernels that run per-lane sub-contexts (the inter-pair batcher's
     * scalar-fallback lanes) report their lanes' time here so the outer
     * caller still sees one setup/kernel split for the whole call.
     */
    void addPhases(Phases p)
    {
        setup_ns_ += p.setup_us * 1000;
        kernel_ns_ += p.kernel_us * 1000;
    }

    /**
     * Accumulated phase times since the last take, rounded to whole
     * microseconds. Stops any running phase. The engine calls this once
     * per cascade attempt; nested kernels (windowed → full, Hirschberg →
     * NW) simply accumulate into the same totals.
     */
    Phases takePhases()
    {
        switchPhase(Phase::None);
        Phases p{setup_ns_ / 1000, kernel_ns_ / 1000};
        setup_ns_ = 0;
        kernel_ns_ = 0;
        return p;
    }

  private:
    enum class Phase { None, Setup, Kernel };

    void switchPhase(Phase next)
    {
        const Clock::time_point now = Clock::now();
        if (phase_ != Phase::None) {
            const i64 ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               now - phase_start_)
                               .count();
            (phase_ == Phase::Setup ? setup_ns_ : kernel_ns_) += ns;
        }
        phase_ = next;
        phase_start_ = now;
    }

    CancelToken cancel_;
    KernelCounts *counts_ = nullptr;
    PeqMemo *peq_memo_ = nullptr;
    ScratchArena *arena_ = nullptr;
    std::unique_ptr<ScratchArena> owned_arena_;
    unsigned stride_ = 0;
    unsigned polls_ = 0;

    Phase phase_ = Phase::None;
    Clock::time_point phase_start_{};
    i64 setup_ns_ = 0;
    i64 kernel_ns_ = 0;
};

} // namespace gmx

#endif // GMX_KERNEL_CONTEXT_HH

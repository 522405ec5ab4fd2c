/**
 * @file
 * AlignerRegistry: one name -> descriptor table over every exact and
 * heuristic alignment kernel in the repository.
 *
 * PRs 1–4 wired kernels into the cascade, the budget estimators, the
 * batch API, and the benches by direct calls, so adding a tier meant
 * touching five layers. The registry makes the kernel set data-driven:
 * a descriptor names the entry point (uniform KernelContext signature),
 * its admission byte estimator, and its capability flags, and the
 * cascade tier list, budget admission, engine custom-aligner harnesses,
 * and the registry-driven equivalence test all consume it. Adding a kernel
 * is one registration plus tests passing (see DESIGN.md §4g for the
 * kernel-author checklist).
 */

#ifndef GMX_KERNEL_REGISTRY_HH
#define GMX_KERNEL_REGISTRY_HH

#include <string_view>
#include <vector>

#include "align/batch.hh"
#include "align/types.hh"
#include "kernel/context.hh"
#include "sequence/sequence.hh"

namespace gmx::kernel {

/**
 * Uniform kernel parameters. Kernels read only the fields they support
 * (flags on the descriptor say which): banded kernels honour k, tiled
 * kernels honour tile, the windowed heuristic honours window/overlap.
 */
struct KernelParams
{
    bool want_cigar = true;
    i64 k = -1;            //!< banded error bound; < 0 = auto (doubling)
    unsigned tile = 32;    //!< GMX tile size
    bool enforce_bound = true; //!< banded: kNoAlignment when distance > k
    size_t window = 96;    //!< windowed heuristic geometry
    size_t overlap = 32;
};

/** One registered aligner. All function pointers are non-null. */
struct AlignerDescriptor
{
    const char *name;      //!< stable lookup key, e.g. "gmx-banded"
    const char *summary;   //!< one-line human description

    bool supports_traceback;     //!< can produce a CIGAR
    bool supports_distance_only; //!< has a cheaper no-CIGAR mode
    bool banded;                 //!< honours KernelParams::k
    bool exact;                  //!< distance always equals the optimum

    /**
     * Tie-breaking contract id, or nullptr. Kernels sharing a non-null
     * contract produce bit-identical CIGARs for identical inputs (at the
     * same tile size where applicable) — the property the cascade relies
     * on and the equivalence test asserts. A nullptr contract promises
     * only a *valid* optimal-cost CIGAR.
     */
    const char *cigar_contract;

    align::AlignResult (*run)(const seq::SequencePair &pair,
                              const KernelParams &params, KernelContext &ctx);

    /**
     * Admission estimate of the kernel's scratch footprint in bytes for
     * an (n, m) pair, mirroring the closed forms in engine/budget. The
     * arena regression tests hold each kernel's measured peak against
     * this within a documented 2x slack (alignment padding, partial-tile
     * rounding, ops buffers).
     */
    size_t (*scratch_bytes)(size_t n, size_t m, const KernelParams &params);

    /**
     * True when the kernel streams the pair through bounded state: its
     * scratch footprint depends on the window geometry, not on n or m
     * (scratch_bytes ignores the pair lengths), so the engine can admit
     * arbitrarily long pairs against a fixed O(window) reservation.
     */
    bool streaming = false;

    /**
     * Largest max(n, m) the kernel accepts (0 = unlimited). The engine
     * enforces this at submit with a typed InvalidInput, so a
     * non-streaming kernel rejects Mbp-scale inputs up front instead of
     * blowing the budget gate (or allocating quadratic state) later.
     */
    size_t max_len = 0;
};

/**
 * Ok, or InvalidInput naming the kernel and its cap when max(n, m)
 * exceeds @p d's max_len. Kernels with max_len == 0 accept any length.
 */
Status checkKernelLength(const AlignerDescriptor &d, size_t n, size_t m);

/**
 * Process-wide kernel table. Built-ins register on first use and the
 * table never changes afterwards, so a descriptor pointer stays valid
 * for the life of the process (engine route plans hold them while a
 * request is queued).
 */
class AlignerRegistry
{
  public:
    static AlignerRegistry &instance();

    /** Descriptor by name, or nullptr. */
    const AlignerDescriptor *find(std::string_view name) const;

    /** Descriptor by name; FatalError listing known names when absent. */
    const AlignerDescriptor &require(std::string_view name) const;

    const std::vector<AlignerDescriptor> &all() const { return table_; }

    /** Every kernel that can produce a CIGAR (equivalence-test corpus). */
    std::vector<const AlignerDescriptor *> tracebackCapable() const;

  private:
    AlignerRegistry();
    /** Register @p d; name must be unique (FatalError otherwise). */
    void add(const AlignerDescriptor &d);
    std::vector<AlignerDescriptor> table_;
};

/**
 * A thread-safe align::PairAligner running the named kernel with
 * @p params. Each worker thread reuses a thread-local ScratchArena, so
 * custom-aligner requests and the benches get the same allocator-frugal
 * hot path as the engine's cascade.
 */
align::PairAligner makeAligner(std::string_view name,
                               const KernelParams &params = {});

} // namespace gmx::kernel

#endif // GMX_KERNEL_REGISTRY_HH

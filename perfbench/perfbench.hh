/**
 * @file
 * Shared vocabulary of the serving benchmark: workloads and their
 * request draws, the correctness gate, latency histograms, run windows,
 * and the metric list the benchmark prints.
 *
 * The benchmark measures the serving stack from outside: every number
 * comes from timing calls into public functions of src/ (Engine,
 * cascadeAlign, the kernel registry, ShardRouter, the wire protocol,
 * AlignServer/AlignClient). Nothing here is linked into the library.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <string>
#include <vector>

#include "align/types.hh"
#include "common/prng.hh"
#include "common/status.hh"
#include "common/types.hh"
#include "sequence/sequence.hh"

namespace perfbench {

using gmx::i64;
using gmx::u32;
using gmx::u64;
using gmx::u8;
using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Process user+sys CPU seconds (getrusage). */
double cpuSeconds();

/** Process peak resident set in MiB (VmHWM; ru_maxrss where absent). */
double rssPeakMiB();

/** Median of @p v (0 when empty); @p v is reordered. */
double median(std::vector<double> v);

// ---------------------------------------------------------------- workloads

/**
 * One benchmark workload: a pool of unique pairs with their reference
 * distances, and the rule that draws the request sequence from it.
 * Requests name a pool index; whether a request wants a CIGAR is a
 * property of the pair (each cascade_mix class has its own pairs).
 */
struct Workload
{
    std::string name;
    bool wire = false;         //!< end-to-end path is AlignServer + AlignClient
    unsigned outstanding = 0;  //!< closed-loop requests in flight
    u64 seed = 0;

    std::vector<gmx::seq::SequencePair> pairs; //!< unique pairs
    std::vector<u8> want_cigar;                //!< per pair
    std::vector<i64> expected;                 //!< align::nwDistance per pair

    /** Zipf CDF over pool ranks; empty = requests cycle the pool in order. */
    std::vector<double> zipf_cdf;
};

/**
 * Generate workload @p name from @p seed (same seed, same pairs and
 * draw), including the reference distances; @p smoke shrinks the pool
 * 32x. Throws std::invalid_argument for an unknown name.
 */
Workload makeWorkload(const std::string &name, u64 seed, bool smoke);

/**
 * The request sequence of a workload. Every Draw of the same workload
 * yields the same sequence from its start, so each layer sees the
 * requests the end-to-end loop sees.
 */
class Draw
{
  public:
    explicit Draw(const Workload &w);

    /** Pool index of the next request. */
    u32 next();

  private:
    const Workload &w_;
    gmx::Prng prng_;
    u64 i_ = 0;
};

/** Share of the first @p n requests of @p w's draw that repeat earlier ones. */
double repeatRatio(const Workload &w, u64 n);

// ---------------------------------------------------------- correctness gate

/**
 * Checks every result against the reference: distances against
 * align::nwDistance, CIGARs with align::verifyResult. The first mismatch
 * is kept (naming the workload and pair id) and fails the run.
 */
class Gate
{
  public:
    explicit Gate(const Workload &w) : w_(w) {}

    /**
     * Count one request and check its answer for pool pair @p pair. A
     * non-Ok outcome counts as failed (not as a mismatch); false only on
     * a mismatch.
     */
    bool check(u32 pair, const gmx::Result<gmx::align::AlignResult> &r,
               const char *where);

    /** Count and check one answer that cannot fail (direct calls). */
    bool check(u32 pair, const gmx::align::AlignResult &r, const char *where);

    /** Count and check a distance-only answer (kernel entry points). */
    bool checkDistance(u32 pair, i64 distance, const char *where);

    /** Record a failure that is not a result mismatch. */
    void fail(const std::string &what);

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    u64 attempted() const { return attempted_; }
    u64 failed() const { return failed_; }

  private:
    const Workload &w_;
    std::string error_;
    u64 attempted_ = 0;
    u64 failed_ = 0;
};

// ---------------------------------------------------------------- histogram

/**
 * Log-bucketed duration histogram: 1% wide buckets from 10 ns to ~100 s,
 * quantiles interpolated within a bucket. Constant memory, so recording
 * every request of a long run does not grow the process (rss_peak_mib
 * stays a property of the system under test).
 */
class LogHist
{
  public:
    LogHist() : counts_(kBuckets, 0) {}

    void add(double ns);
    void add(Clock::duration d)
    {
        add(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(d).count()));
    }

    u64 count() const { return total_; }

    /** Quantile @p q in [0,1], in nanoseconds (0 when empty). */
    double quantileNs(double q) const;

  private:
    static constexpr size_t kBuckets = 2400;
    static constexpr double kMinNs = 10.0;
    std::vector<u64> counts_;
    u64 total_ = 0;
};

// ---------------------------------------------------------------- windows

/** How a closed loop runs: warm-up, then a measured window cut in slices. */
struct Window
{
    double warmup_s = 1.0;
    double measure_s = 1.0;
    int slices = 1;
};

/** What one measured slice saw. */
struct Slice
{
    u64 done = 0;   //!< requests completed in the slice
    u64 failed = 0; //!< of those, non-Ok results or transport failures
    double wall_s = 0.0;
    double cpu_s = 0.0;
    LogHist latency; //!< submit/send -> get/response, per request
};

/** Slices of one closed-loop run, plus per-call probes of traced runs. */
struct LoopResult
{
    std::vector<Slice> slices;
    LogHist call;      //!< time in Engine::submit / AlignClient::sendRequest
    LogHist recv_wait; //!< time blocked in AlignClient::readResponse
    std::vector<double> snapshot_us; //!< metrics render cost, under load

    u64 attempted() const;
    u64 failed() const;
    /** Median over slices of completed requests per second. */
    double pairsPerSecond() const;
};

// ---------------------------------------------------------------- metrics

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

using Metrics = std::vector<Metric>;

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH

/**
 * @file
 * Layer peeling: the traced run's unloaded per-layer ledger.
 *
 * Each sampled request is sent serially (one outstanding request)
 * through every entry point in turn — kernel descriptors, cascadeAlign,
 * Engine::submit+get, ShardRouter::submit+complete, AlignClient round
 * trip — and each call is one span tagged with the request's id. The
 * difference between adjacent entry points is the self time of the layer
 * between them.
 */

#ifndef PERFBENCH_PEEL_HH
#define PERFBENCH_PEEL_HH

#include <string>

#include "perfbench.hh"

namespace perfbench {

struct PeelConfig
{
    size_t samples = 128; //!< distinct requests measured
    int reps = 3;         //!< passes; each entry point keeps its fastest
    std::string spans_path; //!< spans JSON written here (empty = none)
    std::string meta_json;  //!< host/build metadata embedded in the file
};

/**
 * Append the peel.* metrics and print the peel table to stdout. Self
 * times are means over the sampled requests of per-request differences
 * between adjacent entry points, each the fastest of cfg.reps calls.
 * They telescope to the chain's own wire time; peel.residual_ratio
 * compares their sum with an independent unloaded wire round trip over
 * the same requests.
 */
void peel(const Workload &w, const PeelConfig &cfg, Gate &gate,
          Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_PEEL_HH

/**
 * @file
 * Per-layer measurements of the traced run. Each function times calls
 * into one layer's public functions on the workload's own requests,
 * checks every answer through the Gate, and appends its metrics.
 * @p budget_s is the layer's share of the run's --seconds.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include "perfbench.hh"

namespace perfbench {

/** kernel.*: registry descriptors and the SIMD lane batcher, one thread. */
void kernelLayer(const Workload &w, double budget_s, Gate &gate,
                 Metrics &out);

/** cascade.*: engine::cascadeAlign with a reused ScratchArena, one thread. */
void cascadeLayer(const Workload &w, double budget_s, Gate &gate,
                  Metrics &out);

/** engine.*: loaded Engine legs, tracing at its default and off. */
void engineLayer(const Workload &w, double budget_s, Gate &gate,
                 Metrics &out);

/** router.*: ShardRouter::submit/complete driven directly. */
void routerLayer(const Workload &w, double budget_s, Gate &gate,
                 Metrics &out);

/** protocol.*: request/response encode + decode on the workload's frames. */
void protocolLayer(const Workload &w, double budget_s, Gate &gate,
                   Metrics &out);

/** wire.*: AlignClient calls and serveSnapshot() renders under load. */
void wireLayer(const Workload &w, double budget_s, Gate &gate, Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH

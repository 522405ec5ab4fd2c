/**
 * @file
 * OpenMetrics / Prometheus text rendering of a MetricsSnapshot.
 *
 * The engine's JSON snapshot is the programmatic surface; this is the
 * scrape surface: every counter, gauge, and histogram in the snapshot
 * rendered in the OpenMetrics text format (one `# TYPE` line per metric
 * family, `_total`-suffixed counters, cumulative `le`-labelled histogram
 * buckets with a closing `+Inf`, and the mandatory trailing `# EOF`).
 * Per-tier series carry a `tier` label so one family covers the whole
 * cascade: `gmx_tier_cells_total{tier="banded"}`.
 *
 * The renderer is a pure function of the snapshot — call it from an HTTP
 * handler, a signal handler's dump, or a benchmark's epilogue alike.
 */

#ifndef GMX_ENGINE_EXPORTER_HH
#define GMX_ENGINE_EXPORTER_HH

#include <iosfwd>
#include <string>

#include "engine/metrics.hh"

namespace gmx::engine {

/**
 * Render @p snap as an OpenMetrics text block (ends with "# EOF\n").
 * Metric names are prefixed "gmx_"; latency histograms are emitted in
 * seconds, as the conventions require, converted from the snapshot's
 * log2-microsecond buckets.
 */
std::string renderOpenMetrics(const MetricsSnapshot &snap);

/** Exposition primitives shared with serve/metrics, so the two
 *  renderers format numbers and families identically. */
namespace openmetrics {

/** Shortest round-trippable decimal for a double ("0.001", "1.5e-05"). */
std::string num(double v);
/** `# TYPE <name> counter` + `<name>_total <value>`. */
void counter(std::ostream &os, const char *name, u64 value);
/** `# TYPE <name> gauge` + `<name> <num(value)>`. */
void gauge(std::ostream &os, const char *name, double value);

} // namespace openmetrics

} // namespace gmx::engine

#endif // GMX_ENGINE_EXPORTER_HH

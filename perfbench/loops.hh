/**
 * @file
 * Closed loops: keep a workload's requests in flight through one
 * entry point (Engine, ShardRouter, or the wire) for a Window, checking
 * every result, and measure set-up time.
 */

#ifndef PERFBENCH_LOOPS_HH
#define PERFBENCH_LOOPS_HH

#include "engine/engine.hh"
#include "perfbench.hh"
#include "serve/client.hh"
#include "serve/router.hh"
#include "serve/server.hh"

namespace perfbench {

/** The engine every workload runs: 2 workers, defaults otherwise. */
gmx::engine::EngineConfig engineConfig();

/**
 * One submitting thread keeps w.outstanding futures in flight through
 * Engine::submit and get(). With @p probe, also times each submit call
 * and one metrics()+renderOpenMetrics() every 50 ms.
 */
LoopResult engineLoop(gmx::engine::Engine &eng, const Workload &w,
                      const Window &win, Gate &gate, bool probe);

/**
 * Same loop through ShardRouter::submit and complete; @p requests
 * returns how many requests were submitted from the draw's start.
 */
LoopResult routerLoop(gmx::serve::ShardRouter &router, const Workload &w,
                      const Window &win, Gate &gate, u64 &requests);

/**
 * One AlignClient connection keeps w.outstanding requests in flight
 * through sendRequest/readResponse. With @p probe, also times each call
 * and one serveSnapshot() render of @p server every 50 ms.
 */
LoopResult wireLoop(gmx::serve::AlignClient &client,
                    const gmx::serve::AlignServer &server, const Workload &w,
                    const Window &win, Gate &gate, bool probe);

/**
 * A running AlignServer over its own engine, with one connected client.
 * start() is everything setup_s times for the wire path up to the first
 * request.
 */
class WireStack
{
  public:
    WireStack();
    WireStack(const WireStack &) = delete;
    WireStack &operator=(const WireStack &) = delete;

    /** Start the server and connect the client. */
    gmx::Status start();

    gmx::engine::Engine &engine() { return engine_; }
    gmx::serve::AlignServer &server() { return server_; }
    gmx::serve::AlignClient &client() { return *client_; }

  private:
    gmx::engine::Engine engine_;
    gmx::serve::AlignServer server_;
    std::unique_ptr<gmx::serve::AlignClient> client_;
};

/** One request round trip over @p client; ok() only when it succeeded. */
gmx::Result<gmx::align::AlignResult>
wireRoundTrip(gmx::serve::AlignClient &client, const Workload &w, u32 pair,
              u64 id);

/**
 * Median over @p reps of: construct the workload's stack (engine; plus
 * server start and client connect on the wire path) and complete its
 * first request. Tear-down is not timed.
 */
double setupSeconds(const Workload &w, int reps, Gate &gate);

} // namespace perfbench

#endif // PERFBENCH_LOOPS_HH

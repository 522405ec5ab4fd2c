#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite, then
# run the chaos suite in a fault-injection build.
#
# Usage:
#   scripts/tier1.sh                 # plain build + ctest + chaos leg
#   GMX_SANITIZE=thread scripts/tier1.sh
#       additionally builds a ThreadSanitizer tree (with fault injection
#       compiled in) and runs the concurrency-sensitive tests — engine,
#       cascade, engine batch, chaos — under it.
#   GMX_SANITIZE=address scripts/tier1.sh
#       same, with AddressSanitizer over the whole suite.
#   GMX_SANITIZE=all scripts/tier1.sh
#       both sanitizer legs.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo "== Fault-injection pass (chaos suite) =="
cmake -B build-fault -S . -DGMX_FAULT_INJECTION=ON
cmake --build build-fault -j"$(nproc)" --target test_chaos test_engine
ctest --test-dir build-fault --output-on-failure -j"$(nproc)" \
    -R 'Chaos|Engine'

echo "== Observability pass (-Werror build, trace/exporter under TSan) =="
# New warnings in the observability layer may not land silently, and the
# lock-free trace ring must stay race-clean: build the observability
# tests with warnings-as-errors AND ThreadSanitizer, then run them.
# test_trace hosts the TraceRecorder multi-writer wrap stress, so it
# rides in this leg too; Exporter pins the engine renders (golden
# exposition).
cmake -B build-obs -S . -DGMX_WERROR=ON -DGMX_SANITIZE=thread
cmake --build build-obs -j"$(nproc)" --target test_observability test_trace
ctest --test-dir build-obs --output-on-failure -j"$(nproc)" \
    -R 'Observability|TraceRecorder|Exporter|LatencyHistogram|BudgetEstimators|KernelCounts'

echo "== Front-door pass (-Werror + TSan, serve + scrape + chaos storm) =="
# Both servers run on the one listener core in common/net (acceptor,
# handler pool, connection cap, graceful stop); the alignment server adds
# one writer thread per connection over shared quota/router/cache state.
# ThreadSanitizer must see the serve suite, the scrape-server suite and
# the fault-storm leg clean, with warnings-as-errors so new serve code
# lands warning-free. ServeMetrics pins the serve renders (golden
# exposition, client-id escaping) in the same warnings-as-errors tree.
cmake -B build-front -S . -DGMX_WERROR=ON -DGMX_SANITIZE=thread \
    -DGMX_FAULT_INJECTION=ON
cmake --build build-front -j"$(nproc)" \
    --target test_serve test_server test_chaos
ctest --test-dir build-front --output-on-failure -j"$(nproc)" \
    -R 'ServeProtocol|ServeMetrics|AlignServer|AlignClient|QuotaRegistry|ShardRouter|MetricsServer|Chaos'

echo "== Resilience pass (TSan + -Werror: breaker/brownout/watchdog) =="
# The circuit breaker, brownout EWMA, connection watchdog, and retry
# layer all cross the reader/writer/watchdog thread boundaries; run
# them as an explicit leg (same warnings-as-errors TSan tree) so a
# regression in any one of them is named in the tier-1 output.
ctest --test-dir build-front --output-on-failure -j"$(nproc)" \
    -R 'AlignClient|Breaker|Brownout|Watchdog|ClockSkew|Deadline|WedgedShard'

echo "== Scrape-server pass (-Werror + ASan, live curl smoke) =="
# The metrics server owns threads and fds; AddressSanitizer turns a leak
# on any path — including graceful shutdown with in-flight connections —
# into a test failure. The curl smoke drives the real demo end to end,
# and the serve_demo smoke does the same for the alignment front door
# (TCP + unix socket + dedup cache + spliced /metrics).
cmake -B build-server -S . -DGMX_WERROR=ON -DGMX_SANITIZE=address
cmake --build build-server -j"$(nproc)" \
    --target test_server test_serve throughput_demo serve_demo
# The partial-batch retry path reconnects and re-buffers per attempt;
# ASan guards the slot bookkeeping against any use-after-free or leak.
ctest --test-dir build-server --output-on-failure -j"$(nproc)" \
    -R 'MetricsServer|AlignClient.RetryCompletesPartialBatchAfterThrottle'
build-server/examples/serve_demo
echo "serve_demo smoke OK"
serve_log="$(mktemp)"
build-server/examples/throughput_demo --serve 0 >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_log"' EXIT
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's|.*serving on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' \
        "$serve_log")"
    [[ -n "$port" ]] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "throughput_demo exited before serving:" >&2
        cat "$serve_log" >&2
        exit 1
    fi
    sleep 0.2
done
[[ -n "$port" ]] || { echo "no serve port in demo output" >&2; exit 1; }
curl -fsS "http://127.0.0.1:$port/healthz" | grep -q '^ok$'
curl -fsS "http://127.0.0.1:$port/metrics" | tail -1 | grep -q '^# EOF$'
curl -fsS "http://127.0.0.1:$port/vars" | grep -q '"completed":'
kill "$serve_pid"
wait "$serve_pid"
trap - EXIT
rm -f "$serve_log"
echo "scrape smoke OK (port $port)"

echo "== SIMD pass (4-lane batcher, dispatch gate, arena estimates, forced scalar) =="
# The -mavx2 TU holds one kernel, the 4-lane inter-pair batcher: its
# distances against scalar bpm across every lane width (Bpm), the
# runtime gate and its test seam (Dispatch), and the arena estimates of
# the batch group and of every registry kernel (ScratchArena). Then the
# gate and registry tests re-run under GMX_FORCE_SCALAR=1 so the env
# override path (not just the in-process test seam) stays honest. On
# hosts without AVX2 the batcher runs its portable backend.
ctest --test-dir build --output-on-failure -j"$(nproc)" \
    -R 'Bpm|Dispatch|ScratchArena'
GMX_FORCE_SCALAR=1 ctest --test-dir build --output-on-failure -j"$(nproc)" \
    -R 'Registry|Dispatch'

echo "== Engine batch pass (lane-packed filter tier, both dispatch modes) =="
# The engine-level batcher integration: end-to-end bit-identity of the
# packed filter tier vs the forced-scalar cascade, deterministic lane
# packing/occupancy, per-lane deadlines, and the head-of-line fusion
# fix — run with dispatch enabled AND under GMX_FORCE_SCALAR=1 (the
# packing-sensitive tests skip themselves when packing is off by design;
# the differential ones must still pass bit-identically).
ctest --test-dir build --output-on-failure -j"$(nproc)" -R 'EngineBatch'
GMX_FORCE_SCALAR=1 ctest --test-dir build --output-on-failure \
    -j"$(nproc)" -R 'EngineBatch'

echo "== UBSan pass (kernel registry + arena + engine + GMX unit tests) =="
# The KernelContext refactor routes every kernel's scratch through the
# bump arena; UndefinedBehaviorSanitizer (no-recover) guards the pointer
# arithmetic, alignment casts, and 64-bit shift tricks on those paths —
# including the batcher TU's lane extracts and per-lane variable shifts
# (test_bpm drives every lane width, test_dispatch the cascade under
# both overrides). The GMX tile step, gmx.tb column walk and ISA models
# shift by lane index up to T = 64, where a shift by the full word width
# is undefined.
cmake -B build-ubsan -S . -DGMX_SANITIZE=undefined
cmake --build build-ubsan -j"$(nproc)" --target \
    test_registry test_arena test_dispatch test_nw test_bpm \
    test_bpm_banded test_bitap \
    test_hirschberg test_gmx_full test_gmx_banded test_gmx_windowed \
    test_windowed_stream test_engine test_engine_batch \
    test_tile test_isa test_hw_arrays test_isa_sim
ctest --test-dir build-ubsan --output-on-failure -j"$(nproc)" \
    -R 'Registry|ScratchArena|Dispatch|Nw|Bpm|Bitap|Hirschberg|FullGmx|BandedGmx|WindowedGmx|WindowedStream|Engine|Cascade|Batch|Tile|GmxUnit|GmxTbArrayTest|GmxAcArrayTest|Cpu|Programs|Assembler'

echo "== Long-read pass (ASan streamed equivalence + 1 Mbp smoke) =="
# The streaming windowed tier owns a reentrant stepper with per-window
# arena rewinds: AddressSanitizer must see the streamed-vs-monolithic
# equivalence corpus and the O(window) arena contract clean, and the
# scale bench's --smoke mode drives the full mixed-traffic serving story
# (1 long pair + 150 bp shorts under one budget) with hard pass/fail
# checks.
cmake -B build-longread -S . -DGMX_SANITIZE=address
cmake --build build-longread -j"$(nproc)" \
    --target test_windowed_stream test_arena long_read_overlap
ctest --test-dir build-longread --output-on-failure -j"$(nproc)" \
    -R 'WindowedStream|ScratchArena'
build-longread/examples/long_read_overlap >/dev/null
echo "long_read_overlap smoke OK"
cmake --build build -j"$(nproc)" --target scale_1mbp
build/bench/scale_1mbp --smoke
echo "scale_1mbp smoke OK"

sanitize="${GMX_SANITIZE:-}"

if [[ "$sanitize" == "thread" || "$sanitize" == "all" ]]; then
    echo "== ThreadSanitizer pass (engine/batch/chaos tests) =="
    cmake -B build-tsan -S . -DGMX_SANITIZE=thread -DGMX_FAULT_INJECTION=ON
    cmake --build build-tsan -j"$(nproc)" \
        --target test_engine test_engine_batch test_chaos
    ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
        -R 'Engine|Cascade|Batch|Chaos'
fi

if [[ "$sanitize" == "address" || "$sanitize" == "all" ]]; then
    echo "== AddressSanitizer pass (full suite) =="
    cmake -B build-asan -S . -DGMX_SANITIZE=address
    cmake --build build-asan -j"$(nproc)"
    ctest --test-dir build-asan --output-on-failure -j"$(nproc)"
fi

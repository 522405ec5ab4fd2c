/**
 * @file
 * Serving benchmark binary. One process runs one workload:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--smoke] [--spans <path>] [--build-id <text>]
 *
 * --trace 0 measures the end-to-end metrics of the workload's own closed
 * loop; --trace 1 measures every layer on the workload's requests and
 * runs the layer peel. Every answer passes the correctness gate. Human
 * readable lines come first; the last line is one JSON object with
 * "correct", "attempted", "failed", "metrics" and "meta".
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "kernel/dispatch.hh"
#include "kernel/simd/bpm_simd.hh"
#include "layers.hh"
#include "loops.hh"
#include "peel.hh"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool smoke = false;
    std::string spans;
    std::string build_id = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke] [--spans <path>] "
                 "[--build-id <text>]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (flag == "--trace")
            a.trace = std::atoi(v);
        else if (flag == "--spans")
            a.spans = v;
        else if (flag == "--build-id")
            a.build_id = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0) || a.seconds > 600.0)
        usage("--seconds must be in (0, 600]");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    return a;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    return "unknown";
}

/** Host and build metadata: points from different hosts or builds differ. */
std::string
metaJson(const Args &a)
{
    const char *force = std::getenv("GMX_FORCE_SCALAR");
    return "{\"cpu_model\":" + jsonString(cpuModel()) +
           ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
           ",\"simd_backend\":" +
           jsonString(gmx::simd::builtWithAvx2() ? "avx2" : "portable") +
           ",\"simd_dispatch\":" +
           (gmx::kernel::simdDispatchEnabled() ? "true" : "false") +
           ",\"gmx_force_scalar\":" + jsonString(force ? force : "") +
           ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
           ",\"build_id\":" + jsonString(a.build_id) + "}";
}

/** Mean of the best quarter of @p v: its largest values when @p higher. */
double
bestQuarter(std::vector<double> v, bool higher)
{
    if (higher)
        std::sort(v.rbegin(), v.rend());
    else
        std::sort(v.begin(), v.end());
    v.resize(std::max<size_t>(1, v.size() / 4));
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

/**
 * End-to-end metrics of the workload's own closed loop. The window is cut
 * into half-second slices, and each timing metric is the mean of its best
 * quarter of slices (best of N): interference from other work on a shared
 * host only ever slows a slice down, so the best slices are the steadiest
 * estimate of the system's own speed, and averaging a quarter of them keeps
 * one lucky or stalled slice from deciding the result.
 */
void
endToEnd(const Workload &w, const Args &a, Gate &gate, Metrics &out)
{
    const double setup_s = setupSeconds(w, a.smoke ? 3 : 31, gate);
    const Window win{a.smoke ? 0.2 : 1.0, a.seconds,
                     std::max(3, static_cast<int>(2 * a.seconds))};
    LoopResult r;
    if (w.wire) {
        WireStack stack;
        if (gmx::Status s = stack.start(); !s.ok()) {
            gate.fail("wire set-up: " + s.toString());
            return;
        }
        r = wireLoop(stack.client(), stack.server(), w, win, gate, false);
    } else {
        gmx::engine::Engine eng(engineConfig());
        r = engineLoop(eng, w, win, gate, false);
    }

    std::vector<double> rate, p50, p99, cpu;
    u64 samples = 0;
    for (const Slice &s : r.slices) {
        const double ok = static_cast<double>(s.done - s.failed);
        rate.push_back(s.wall_s > 0 ? ok / s.wall_s : 0.0);
        p50.push_back(s.latency.quantileNs(0.50) / 1e3);
        p99.push_back(s.latency.quantileNs(0.99) / 1e3);
        cpu.push_back(ok > 0 ? s.cpu_s * 1e6 / ok : 0.0);
        samples += s.latency.count();
        std::printf("slice %zu: pairs_per_s %.1f latency_p50_us %.1f "
                    "latency_p99_us %.1f cpu_us_per_pair %.3f\n",
                    rate.size() - 1, rate.back(), p50.back(), p99.back(),
                    cpu.back());
    }
    const u64 attempted = r.attempted();
    std::printf("window: %zu slices of %.3f s, %llu requests, failed_ratio "
                "%.6g\n",
                r.slices.size(), win.measure_s / win.slices,
                static_cast<unsigned long long>(attempted),
                attempted ? static_cast<double>(r.failed()) /
                                static_cast<double>(attempted)
                          : 0.0);
    std::printf("latency: %llu samples (~%llu per slice)\n",
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(
                    r.slices.empty() ? 0 : samples / r.slices.size()));
    out.push_back({"pairs_per_s", bestQuarter(rate, true), "1/s"});
    out.push_back({"latency_p50_us", bestQuarter(p50, false), "us"});
    out.push_back({"latency_p99_us", bestQuarter(p99, false), "us"});
    out.push_back({"cpu_us_per_pair", bestQuarter(cpu, false), "us"});
    out.push_back({"rss_peak_mib", rssPeakMiB(), "MiB"});
    out.push_back({"setup_s", setup_s, "s"});
}

/** Per-layer metrics and the peel, on the workload's requests. */
void
perLayer(const Workload &w, const Args &a, const std::string &meta,
         Gate &gate, Metrics &out)
{
    const double s = a.seconds;
    kernelLayer(w, 0.12 * s, gate, out);
    if (gate.ok())
        cascadeLayer(w, 0.08 * s, gate, out);
    if (gate.ok())
        engineLayer(w, 0.35 * s, gate, out);
    if (gate.ok())
        routerLayer(w, 0.10 * s, gate, out);
    if (gate.ok())
        protocolLayer(w, 0.04 * s, gate, out);
    if (gate.ok())
        wireLayer(w, 0.15 * s, gate, out);
    if (gate.ok())
        peel(w, {a.smoke ? 16u : 96u, a.smoke ? 2 : 5, a.spans, meta}, gate,
             out);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    const std::string meta = metaJson(a);
    std::printf("meta: %s\n", meta.c_str());

    const auto t0 = Clock::now();
    Workload w;
    try {
        w = makeWorkload(a.workload, a.seed, a.smoke);
    } catch (const std::exception &e) {
        usage(e.what());
    }
    std::printf("workload %s: %zu unique pairs, %u in flight, reference "
                "distances in %.3f s\n",
                w.name.c_str(), w.pairs.size(), w.outstanding,
                secondsBetween(t0, Clock::now()));

    Gate gate(w);
    Metrics metrics;
    if (a.trace == 0)
        endToEnd(w, a, gate, metrics);
    else
        perLayer(w, a, meta, gate, metrics);

    for (const Metric &m : metrics)
        std::printf("%-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (!gate.ok())
        std::fprintf(stderr, "correctness gate FAILED: %s\n",
                     gate.error().c_str());

    std::string json = "{\"correct\":";
    json += gate.ok() ? "true" : "false";
    json += ",\"attempted\":" + std::to_string(gate.attempted());
    json += ",\"failed\":" + std::to_string(gate.failed());
    json += ",\"metrics\":{";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (std::isfinite(metrics[i].value))
            std::snprintf(buf, sizeof buf, "%.12g", metrics[i].value);
        else
            std::snprintf(buf, sizeof buf, "null");
        json += (i ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" +
                buf + ",\"unit\":\"" + metrics[i].unit + "\"}";
    }
    json += "},\"meta\":" + meta + "}";
    std::printf("%s\n", json.c_str());
    return gate.ok() ? 0 : 1;
}

#include "loops.hh"

#include <future>

#include "engine/exporter.hh"
#include "serve/metrics.hh"

namespace perfbench {

using namespace gmx;

namespace {

constexpr auto kProbeEvery = std::chrono::milliseconds(50);

/**
 * Assigns each completion to a slice of the measured window: -1 during
 * warm-up, then 0..slices-1, then `slices` once the window has closed.
 * A slice's wall and CPU time run from the first completion past its
 * start boundary to the first completion past its end boundary.
 */
class Meter
{
  public:
    Meter(const Window &win, LoopResult &out)
        : out_(out), slices_(win.slices),
          start_(Clock::now() + toDuration(win.warmup_s)),
          slice_len_(toDuration(win.measure_s / win.slices))
    {
        out_.slices.resize(static_cast<size_t>(slices_));
    }

    int at(Clock::time_point now)
    {
        while (cur_ < slices_ && now >= start_ + (cur_ + 1) * slice_len_) {
            const double cpu = cpuSeconds();
            if (cur_ >= 0) {
                Slice &s = out_.slices[static_cast<size_t>(cur_)];
                s.cpu_s = cpu - cpu_mark_;
                s.wall_s = secondsBetween(wall_mark_, now);
            }
            cpu_mark_ = cpu;
            wall_mark_ = now;
            ++cur_;
        }
        return cur_;
    }

    bool closed(int slice) const { return slice >= slices_; }

    /** Count one completion at @p now that took @p latency. */
    void record(Clock::time_point now, Clock::duration latency, bool ok)
    {
        const int s = at(now);
        if (s < 0 || closed(s))
            return;
        Slice &slice = out_.slices[static_cast<size_t>(s)];
        ++slice.done;
        if (ok) {
            slice.latency.add(latency);
        } else {
            ++slice.failed;
            slice.latency.add(1e12); // a failure misses every latency limit
        }
    }

  private:
    static Clock::duration toDuration(double s)
    {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(s));
    }

    LoopResult &out_;
    int slices_;
    int cur_ = -1;
    double cpu_mark_ = 0.0;
    Clock::time_point wall_mark_;
    Clock::time_point start_;
    Clock::duration slice_len_;
};

/** Times @p render every kProbeEvery into @p out. */
template <typename Render>
void
probeSnapshot(Clock::time_point &next, std::vector<double> &out,
              Render &&render)
{
    const auto now = Clock::now();
    if (now < next)
        return;
    (void)render();
    out.push_back(secondsBetween(now, Clock::now()) * 1e6);
    next = now + kProbeEvery;
}

} // namespace

engine::EngineConfig
engineConfig()
{
    engine::EngineConfig cfg;
    cfg.workers = 2;
    return cfg;
}

LoopResult
engineLoop(engine::Engine &eng, const Workload &w, const Window &win,
           Gate &gate, bool probe)
{
    struct Slot
    {
        std::future<engine::Engine::AlignOutcome> future;
        Clock::time_point sent;
        u32 pair = 0;
    };
    LoopResult out;
    Draw draw(w);
    std::vector<Slot> ring(w.outstanding);
    auto submit = [&](Slot &s) {
        s.pair = draw.next();
        engine::SubmitOptions opts;
        opts.want_cigar = w.want_cigar[s.pair] != 0;
        s.sent = Clock::now();
        s.future = eng.submit(w.pairs[s.pair], std::move(opts));
        if (probe)
            out.call.add(Clock::now() - s.sent);
    };
    for (Slot &s : ring)
        submit(s);
    Meter meter(win, out);
    Clock::time_point next_probe = Clock::now();
    for (size_t head = 0;; head = (head + 1) % ring.size()) {
        Slot &s = ring[head];
        const engine::Engine::AlignOutcome r = s.future.get();
        const auto now = Clock::now();
        meter.record(now, now - s.sent, r.ok());
        gate.check(s.pair, r, "Engine::submit");
        if (meter.closed(meter.at(now)) || !gate.ok())
            break;
        if (probe)
            probeSnapshot(next_probe, out.snapshot_us, [&] {
                return engine::renderOpenMetrics(eng.metrics());
            });
        submit(s);
    }
    for (Slot &s : ring)
        if (s.future.valid())
            s.future.get();
    return out;
}

LoopResult
routerLoop(serve::ShardRouter &router, const Workload &w, const Window &win,
           Gate &gate, u64 &requests)
{
    struct Slot
    {
        serve::Ticket ticket;
        Clock::time_point sent;
        u32 pair = 0;
        bool live = false;
    };
    LoopResult out;
    Draw draw(w);
    requests = 0;
    std::vector<Slot> ring(w.outstanding);
    auto submit = [&](Slot &s) {
        s.pair = draw.next();
        s.sent = Clock::now();
        s.ticket = router.submit(w.pairs[s.pair], w.want_cigar[s.pair] != 0,
                                 /*max_edits=*/0);
        s.live = true;
        ++requests;
    };
    auto settle = [&](Slot &s) {
        const engine::Engine::AlignOutcome &r = s.ticket.future.get();
        router.complete(s.ticket, r.code());
        s.live = false;
        return r;
    };
    for (Slot &s : ring)
        submit(s);
    Meter meter(win, out);
    for (size_t head = 0;; head = (head + 1) % ring.size()) {
        Slot &s = ring[head];
        const engine::Engine::AlignOutcome r = settle(s);
        const auto now = Clock::now();
        meter.record(now, now - s.sent, r.ok());
        gate.check(s.pair, r, "ShardRouter::submit");
        if (meter.closed(meter.at(now)) || !gate.ok())
            break;
        submit(s);
    }
    for (Slot &s : ring)
        if (s.live)
            settle(s);
    return out;
}

namespace {

serve::AlignRequestFrame
requestFrame(const Workload &w, u32 pair, u64 id)
{
    serve::AlignRequestFrame req;
    req.id = id;
    req.want_cigar = w.want_cigar[pair] != 0;
    req.pattern = w.pairs[pair].pattern.str();
    req.text = w.pairs[pair].text.str();
    return req;
}

} // namespace

LoopResult
wireLoop(serve::AlignClient &client, const serve::AlignServer &server,
         const Workload &w, const Window &win, Gate &gate, bool probe)
{
    struct Slot
    {
        Clock::time_point sent;
        u32 pair = 0;
    };
    LoopResult out;
    Draw draw(w);
    std::vector<Slot> ring(w.outstanding);
    u64 next_id = 0;  // id of the next request to send
    u64 oldest = 0;   // id of the oldest unanswered request
    auto send = [&]() {
        Slot &s = ring[next_id % ring.size()];
        s.pair = draw.next();
        const serve::AlignRequestFrame req = requestFrame(w, s.pair, next_id);
        s.sent = Clock::now();
        const Status st = client.sendRequest(req);
        if (probe)
            out.call.add(Clock::now() - s.sent);
        if (!st.ok()) {
            gate.fail("AlignClient::sendRequest: " + st.toString());
            return false;
        }
        ++next_id;
        return true;
    };
    bool alive = true;
    while (alive && next_id < ring.size())
        alive = send();
    Meter meter(win, out);
    Clock::time_point next_probe = Clock::now();
    while (alive && oldest < next_id) {
        serve::AlignResponseFrame resp;
        const auto t0 = Clock::now();
        const Status st = client.readResponse(resp);
        const auto now = Clock::now();
        if (probe)
            out.recv_wait.add(now - t0);
        if (!st.ok()) {
            meter.record(now, {}, false);
            gate.fail("AlignClient::readResponse: " + st.toString());
            break;
        }
        if (resp.id != oldest) {
            gate.fail("response id " + std::to_string(resp.id) +
                      " out of order (expected " + std::to_string(oldest) +
                      ")");
            break;
        }
        const Slot &s = ring[oldest % ring.size()];
        ++oldest;
        const auto r = serve::toOutcome(resp);
        meter.record(now, now - s.sent, r.ok());
        gate.check(s.pair, r, "AlignClient");
        if (!gate.ok())
            break;
        if (probe)
            probeSnapshot(next_probe, out.snapshot_us, [&] {
                return serve::renderServeOpenMetrics(server.serveSnapshot());
            });
        // Once the window closes, stop sending and read (uncounted) what
        // is still in flight, so the connection ends clean.
        if (!meter.closed(meter.at(now)))
            alive = send();
    }
    return out;
}

WireStack::WireStack()
    : engine_(engineConfig()), server_({&engine_}, serve::AlignServerConfig{})
{}

Status
WireStack::start()
{
    if (Status s = server_.start(); !s.ok())
        return s;
    serve::ClientConfig cfg;
    cfg.port = server_.port();
    cfg.client_id = "perfbench";
    client_ = std::make_unique<serve::AlignClient>(cfg);
    return client_->connect();
}

Result<align::AlignResult>
wireRoundTrip(serve::AlignClient &client, const Workload &w, u32 pair, u64 id)
{
    if (Status s = client.sendRequest(requestFrame(w, pair, id)); !s.ok())
        return Result<align::AlignResult>(s);
    serve::AlignResponseFrame resp;
    if (Status s = client.readResponse(resp); !s.ok())
        return Result<align::AlignResult>(s);
    return serve::toOutcome(resp);
}

double
setupSeconds(const Workload &w, int reps, Gate &gate)
{
    std::vector<double> times;
    const u32 first = Draw(w).next();
    for (int i = 0; i < reps && gate.ok(); ++i) {
        const auto t0 = Clock::now();
        if (w.wire) {
            WireStack stack;
            if (Status s = stack.start(); !s.ok()) {
                gate.fail("wire set-up: " + s.toString());
                break;
            }
            const auto r = wireRoundTrip(stack.client(), w, first, 0);
            times.push_back(secondsBetween(t0, Clock::now()));
            if (!r.ok())
                gate.fail("first wire request: " + r.status().toString());
            else
                gate.check(first, *r, "set-up");
        } else {
            engine::Engine eng(engineConfig());
            engine::SubmitOptions opts;
            opts.want_cigar = w.want_cigar[first] != 0;
            const auto r = eng.submit(w.pairs[first], std::move(opts)).get();
            times.push_back(secondsBetween(t0, Clock::now()));
            if (!r.ok())
                gate.fail("first request: " + r.status().toString());
            else
                gate.check(first, *r, "set-up");
        }
    }
    return median(times);
}

} // namespace perfbench

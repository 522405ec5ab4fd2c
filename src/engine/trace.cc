#include "engine/trace.hh"

#include "engine/exporter.hh"

namespace gmx::engine {

const char *
traceEventName(TraceEvent e)
{
    switch (e) {
      case TraceEvent::Enqueue:
        return "enqueue";
      case TraceEvent::Dispatch:
        return "dispatch";
      case TraceEvent::Admission:
        return "admission";
      case TraceEvent::TierAttempt:
        return "tier_attempt";
      case TraceEvent::Complete:
        return "complete";
    }
    return "?";
}

TraceRecorder::TraceRecorder(size_t capacity, u64 sample_every)
    : capacity_(capacity), sample_every_(sample_every),
      epoch_(Clock::now()), slots_(capacity)
{
}

u64
TraceRecorder::packMeta(TraceEvent event, bool has_tier, Tier tier,
                        StatusCode code)
{
    // Byte 0: event, byte 1: tier (0xff = none), byte 2: status code.
    const u64 tier_byte =
        has_tier ? static_cast<u64>(tier) : u64{0xff};
    return static_cast<u64>(event) | (tier_byte << 8) |
           (static_cast<u64>(code) << 16);
}

void
TraceRecorder::record(u64 id, TraceEvent event, i64 t_us, StatusCode code,
                      u64 detail)
{
    push(id, event, t_us, /*has_tier=*/false, Tier::Full, code, detail);
}

void
TraceRecorder::recordTier(u64 id, TraceEvent event, i64 t_us, Tier tier,
                          StatusCode code, u64 detail)
{
    push(id, event, t_us, /*has_tier=*/true, tier, code, detail);
}

void
TraceRecorder::push(u64 id, TraceEvent event, i64 t_us, bool has_tier,
                    Tier tier, StatusCode code, u64 detail)
{
    if (!enabled())
        return;
    const u64 ticket = head_.fetch_add(1, std::memory_order_acq_rel);
    Slot &slot = slots_[ticket % capacity_];
    // Claim the slot: its sequence must still be the previous lap's
    // published value (0 on the first lap). An unconditional store here
    // would let a writer that was descheduled for a whole ring lap stamp
    // its stale seq over a newer ticket's claim; the two writers' field
    // stores could then interleave, and a reader double-checking seq
    // would accept the torn mixture as a valid span. If the slot has
    // moved on, drop this span instead.
    u64 expected = ticket >= capacity_ ? 2 * (ticket - capacity_) + 2 : 0;
    if (!slot.seq.compare_exchange_strong(expected, 2 * ticket + 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
        lost_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    slot.id.store(id, std::memory_order_relaxed);
    slot.meta.store(packMeta(event, has_tier, tier, code),
                    std::memory_order_relaxed);
    slot.time.store(static_cast<u64>(t_us), std::memory_order_relaxed);
    slot.detail.store(detail, std::memory_order_relaxed);
    slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<TraceSpan>
TraceRecorder::spans() const
{
    std::vector<TraceSpan> out;
    if (!enabled())
        return out;
    const u64 head = head_.load(std::memory_order_acquire);
    const u64 first = head > capacity_ ? head - capacity_ : 0;
    out.reserve(static_cast<size_t>(head - first));
    for (u64 ticket = first; ticket < head; ++ticket) {
        const Slot &slot = slots_[ticket % capacity_];
        if (slot.seq.load(std::memory_order_acquire) != 2 * ticket + 2)
            continue; // being written, or already overwritten
        TraceSpan span;
        span.id = slot.id.load(std::memory_order_relaxed);
        const u64 meta = slot.meta.load(std::memory_order_relaxed);
        span.t_us =
            static_cast<i64>(slot.time.load(std::memory_order_relaxed));
        span.detail = slot.detail.load(std::memory_order_relaxed);
        // Re-check: if a writer lapped us mid-read the fields are torn.
        if (slot.seq.load(std::memory_order_acquire) != 2 * ticket + 2)
            continue;
        span.event = static_cast<TraceEvent>(meta & 0xff);
        const u64 tier_byte = (meta >> 8) & 0xff;
        span.has_tier = tier_byte != 0xff;
        span.tier = span.has_tier ? static_cast<Tier>(tier_byte)
                                  : Tier::Full;
        span.code = static_cast<StatusCode>((meta >> 16) & 0xff);
        out.push_back(span);
    }
    return out;
}

std::vector<TraceSpan>
TraceRecorder::spansFor(u64 id) const
{
    std::vector<TraceSpan> out;
    for (const TraceSpan &s : spans())
        if (s.id == id)
            out.push_back(s);
    return out;
}

namespace {

/** `"spans":[...]` and close the object; shared by both dumps. */
std::string
writeSpans(JsonWriter &w, const std::vector<TraceSpan> &spans)
{
    w.key("spans").beginArray();
    for (const TraceSpan &s : spans) {
        w.beginObject();
        w.key("id").value(s.id);
        w.key("event").string(traceEventName(s.event));
        if (s.has_tier)
            w.key("tier").string(tierName(s.tier));
        w.key("code").string(statusCodeName(s.code));
        w.key("t_us").value(s.t_us);
        w.key("detail").value(s.detail);
        w.endObject();
    }
    w.endArray().endObject();
    return w.str();
}

} // namespace

std::string
TraceRecorder::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("recorded").value(recorded());
    w.key("dropped").value(dropped());
    return writeSpans(w, spans());
}

std::string
TraceRecorder::jsonFor(u64 id) const
{
    const auto mine = spansFor(id);
    JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("found").value(!mine.empty());
    return writeSpans(w, mine);
}

const char *
SlowRequestStore::laneName(unsigned lane)
{
    return lane < kTierCount ? tierName(static_cast<Tier>(lane)) : "none";
}

void
SlowRequestStore::note(const SlowExemplar &e)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++noted_;
    auto &lane = lanes_[laneOf(e)];
    lane.push_back(e);
    if (lane.size() > kPerLane)
        lane.pop_front();
}

u64
SlowRequestStore::noted() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return noted_;
}

std::vector<SlowExemplar>
SlowRequestStore::lane(unsigned lane) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return {lanes_[lane].begin(), lanes_[lane].end()};
}

std::string
SlowRequestStore::toJson() const
{
    std::lock_guard<std::mutex> lk(mu_);
    JsonWriter w;
    w.beginObject();
    w.key("noted").value(noted_);
    w.key("by_tier").beginObject();
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        w.key(laneName(lane)).beginArray();
        for (const SlowExemplar &e : lanes_[lane]) {
            w.beginObject();
            w.key("id").value(e.id);
            if (e.has_tier)
                w.key("tier").string(tierName(e.tier));
            w.key("code").string(statusCodeName(e.code));
            w.key("total_us").value(e.total_us);
            w.key("queue_wait_us").value(e.queue_wait_us);
            w.key("service_us").value(e.service_us);
            w.key("completed_us").value(e.completed_us);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject().endObject();
    return w.str();
}

} // namespace gmx::engine

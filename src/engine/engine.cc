#include "engine/engine.hh"

#include <algorithm>
#include <array>
#include <new>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "align/hirschberg.hh"
#include "common/logging.hh"
#include "common/timer.hh"
#include "engine/faults.hh"
#include "kernel/dispatch.hh"
#include "kernel/registry.hh"
#include "kernel/simd/bpm_simd.hh"

namespace gmx::engine {

namespace {

/** A future already fulfilled with @p status (rejections skip the queue). */
std::future<Engine::AlignOutcome>
readyFuture(Status status)
{
    std::promise<Engine::AlignOutcome> p;
    auto f = p.get_future();
    p.set_value(Engine::AlignOutcome(std::move(status)));
    return f;
}

} // namespace

Engine::Engine(EngineConfig config)
    : config_(config), budget_(config.memory_budget_bytes),
      trace_(config.trace_capacity, config.trace_sample_every)
{
    if (config_.queue_capacity == 0)
        GMX_FATAL("Engine: queue_capacity must be nonzero");
    if (config_.microbatch_max == 0)
        config_.microbatch_max = 1;
    // hardware_concurrency() may report 0; never start zero workers.
    const unsigned workers =
        config_.workers != 0
            ? config_.workers
            : std::max(1u, std::thread::hardware_concurrency());
    workers_.reserve(workers);
    try {
        for (unsigned w = 0; w < workers; ++w)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        stop(); // no destructor runs: join the workers already started
        throw;
    }
}

Engine::~Engine()
{
    stop();
}

std::future<Engine::AlignOutcome>
Engine::submit(seq::SequencePair pair, SubmitOptions options)
{
    const size_t n = pair.pattern.size();
    const size_t mm = pair.text.size();
    // Length-class routing decision, made once at the submit boundary and
    // carried on the request: custom aligners always count as Short (the
    // cascade router never sees them), everything else follows the
    // cascade's long_threshold.
    const align::LengthClass klass =
        options.aligner ? align::LengthClass::Short
                        : lengthClassFor(config_.cascade, n, mm);

    // Validation runs on the submitter's thread, before the queue: a
    // malformed pair never costs a queue slot or a worker.
    if (Status s = align::validatePair(pair, config_.limits, klass);
        !s.ok()) {
        metrics_.invalid.fetch_add(1, std::memory_order_relaxed);
        return readyFuture(std::move(s));
    }
    // Per-kernel length caps: every kernel this request's route can visit
    // must accept the pair, so a non-streaming kernel rejects Mbp-scale
    // inputs with a typed InvalidInput here instead of blowing the budget
    // gate (or allocating quadratic state) mid-flight.
    if (!options.aligner) {
        if (Status s = checkRouteLengths(klass, n, mm, options.want_cigar);
            !s.ok()) {
            metrics_.invalid.fetch_add(1, std::memory_order_relaxed);
            return readyFuture(std::move(s));
        }
    }

    Request req;
    req.klass = klass;
    req.bases = n + mm;
    req.want_cigar = options.want_cigar;
    req.aligner = std::move(options.aligner);
    req.cancel = options.timeout.count() > 0
                     ? options.cancel.withTimeout(options.timeout)
                     : options.cancel;
    if (options.estimated_bytes != 0) {
        req.estimated_bytes = options.estimated_bytes;
    } else if (!req.aligner && klass == align::LengthClass::Long) {
        // The streamed tier's footprint is the window geometry's, not the
        // pair's: the estimator ignores n and m, so a 1 Mbp pair reserves
        // the same O(window) bytes as a 100 kbp one. This is what lets a
        // default budget admit long-class traffic at all.
        const auto &reg = kernel::AlignerRegistry::instance();
        kernel::KernelParams params;
        params.want_cigar = req.want_cigar;
        params.tile = config_.cascade.tile;
        params.window = config_.cascade.long_window;
        params.overlap = config_.cascade.long_overlap;
        req.estimated_bytes =
            reg.require(config_.cascade.long_kernel)
                .scratch_bytes(n, mm, params);
    } else if (!req.aligner) {
        // Worst-case cascade footprint. Tier kernels run back to back on
        // one arena and each rewinds its frame, so the request's peak is
        // the max over the tiers it can visit: the full-DP escalation
        // target (traceback requests pay the full edge matrix) and the
        // distance-only filter at the k the routing will pick. Custom
        // aligners are exempt unless declared.
        const auto &reg = kernel::AlignerRegistry::instance();
        kernel::KernelParams params;
        params.want_cigar = req.want_cigar;
        params.tile = config_.cascade.tile;
        // Estimate against the kernel the full tier will actually run.
        req.estimated_bytes =
            fullTierKernel(config_.cascade, req.want_cigar)
                .scratch_bytes(n, mm, params);
        if (config_.cascade.enabled) {
            kernel::KernelParams fparams;
            fparams.want_cigar = false;
            fparams.tile = config_.cascade.tile;
            fparams.k = cascadeFilterK(config_.cascade, n, mm);
            req.estimated_bytes = std::max(
                req.estimated_bytes,
                reg.require(config_.cascade.filter_kernel)
                    .scratch_bytes(n, mm, fparams));
        }
    }
    req.pair = std::move(pair);
    return enqueue(std::move(req));
}

Status
Engine::checkRouteLengths(align::LengthClass klass, size_t n, size_t m,
                          bool want_cigar) const
{
    const auto &reg = kernel::AlignerRegistry::instance();
    const CascadeConfig &cc = config_.cascade;
    if (klass == align::LengthClass::Long) {
        return kernel::checkKernelLength(reg.require(cc.long_kernel), n, m);
    }
    // Short class: the full tier can always be reached; the filter and
    // banded tiers only when the cascade is on.
    if (Status s = kernel::checkKernelLength(fullTierKernel(cc, want_cigar),
                                             n, m);
        !s.ok())
        return s;
    if (cc.enabled) {
        if (Status s =
                kernel::checkKernelLength(reg.require(cc.filter_kernel), n, m);
            !s.ok())
            return s;
        if (Status s =
                kernel::checkKernelLength(reg.require(cc.banded_kernel), n, m);
            !s.ok())
            return s;
    }
    return Status();
}

std::future<Engine::AlignOutcome>
Engine::submit(seq::SequencePair pair, bool want_cigar)
{
    SubmitOptions options;
    options.want_cigar = want_cigar;
    return submit(std::move(pair), std::move(options));
}

std::future<Engine::AlignOutcome>
Engine::submit(seq::SequencePair pair, align::PairAligner aligner)
{
    if (!aligner)
        GMX_FATAL("Engine::submit: empty aligner function");
    SubmitOptions options;
    options.aligner = std::move(aligner);
    return submit(std::move(pair), std::move(options));
}

std::future<Engine::AlignOutcome>
Engine::enqueue(Request req)
{
    req.enqueued = Clock::now();
    req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    auto future = req.promise.get_future();

    // A shed victim's promise must be fulfilled outside mu_ (promise
    // internals are not part of the queue's critical section).
    std::promise<AlignOutcome> shed_victim;
    bool have_victim = false;
    u64 victim_id = 0;
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (stopping_) {
            metrics_.rejected.fetch_add(1, std::memory_order_relaxed);
            return readyFuture(
                Status::engineStopped("submit after Engine::stop()"));
        }
        const bool full =
            queue_.size() >= config_.queue_capacity ||
            GMX_INJECT_FAULT(faults::Point::QueueFull);
        if (full) {
            switch (config_.backpressure) {
              case Backpressure::Block:
                queue_not_full_.wait(lk, [this] {
                    return queue_.size() < config_.queue_capacity ||
                           stopping_;
                });
                if (stopping_) {
                    metrics_.rejected.fetch_add(1,
                                                std::memory_order_relaxed);
                    return readyFuture(Status::engineStopped(
                        "engine stopped while awaiting queue room"));
                }
                break;
              case Backpressure::Reject:
                metrics_.rejected.fetch_add(1, std::memory_order_relaxed);
                return readyFuture(
                    Status::overloaded("queue full (Reject policy)"));
              case Backpressure::ShedOldest:
                if (!queue_.empty()) {
                    shed_victim = std::move(queue_.front().promise);
                    victim_id = queue_.front().id;
                    queue_.pop_front();
                    have_victim = true;
                    metrics_.shed.fetch_add(1, std::memory_order_relaxed);
                }
                break;
            }
        }
        // Record Enqueue under the lock so a traced request's spans can
        // never appear dispatch-before-enqueue in the ring.
        if (trace_.sampled(req.id))
            trace_.record(req.id, TraceEvent::Enqueue,
                          trace_.toUs(req.enqueued));
        queue_.push_back(std::move(req));
        const u64 depth = queue_.size();
        metrics_.queue_depth.store(depth, std::memory_order_relaxed);
        metrics_.notePeak(depth);
        metrics_.submitted.fetch_add(1, std::memory_order_relaxed);
    }
    work_cv_.notify_one();
    if (have_victim) {
        if (trace_.sampled(victim_id))
            trace_.record(victim_id, TraceEvent::Complete, trace_.nowUs(),
                          StatusCode::Overloaded);
        shed_victim.set_value(AlignOutcome(
            Status::overloaded("shed under ShedOldest backpressure")));
        queue_not_full_.notify_one(); // shedding also freed a slot
    }
    return future;
}

void
Engine::workerLoop()
{
    for (;;) {
        std::vector<Request> batch;
        {
            std::unique_lock<std::mutex> lk(mu_);
            work_cv_.wait(lk, [this] { return !queue_.empty() || stopping_; });
            if (queue_.empty())
                return; // stopping_ and drained: this worker is done
            batch.push_back(std::move(queue_.front()));
            queue_.pop_front();
            // Fuse the run of small requests behind the head into one
            // pickup. The head itself may be large: a lone large head
            // must not suppress fusing the smalls queued right behind it
            // (head-of-line fusion miss), and taking the run in queue
            // order keeps sizes unreordered.
            while (batch.size() < config_.microbatch_max &&
                   !queue_.empty() && isSmall(queue_.front())) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            inflight_ += batch.size();
            metrics_.queue_depth.store(queue_.size(),
                                       std::memory_order_relaxed);
        }
        queue_not_full_.notify_all();
        if (batch.size() > 1) {
            metrics_.microbatches.fetch_add(1, std::memory_order_relaxed);
            metrics_.batched_pairs.fetch_add(batch.size(),
                                             std::memory_order_relaxed);
        }
        GMX_FAULT_STALL();
        runRequests(std::move(batch));
        batches_executed_.fetch_add(1, std::memory_order_relaxed);
    }
}

namespace {

/**
 * Per-worker scratch: kernels bump-allocate their DP rows and tile
 * buffers here, so a warmed worker serves requests with zero heap
 * allocations on the hot path. Shared by the lane packer and runOne —
 * both run on the same worker thread, never concurrently.
 */
ScratchArena &
workerArena()
{
    thread_local ScratchArena arena;
    return arena;
}

} // namespace

Engine::Served
Engine::runOne(Request &req, const FilterPrefill *pre)
{
    const bool traced = trace_.sampled(req.id);
    const bool prefilled = pre != nullptr && pre->ran;

    // A lane the packer ran whose deadline expired (or token fired)
    // while fused siblings shared the kernel: fast-fail with the lane's
    // own status instead of re-running anything.
    if (prefilled && !pre->status.ok())
        return Served(AlignOutcome(pre->status));

    // Fast-fail before any work: an expired or cancelled request costs
    // microseconds here instead of a quadratic kernel run.
    if (Status s = req.cancel.check(); !s.ok())
        return Served(AlignOutcome(std::move(s)));

    // ShardWedge: a chaos plan pins this worker for wedge_duration,
    // modelling a sick shard; the serve router's circuit breaker must
    // open on the latency/error window and route around this engine.
    GMX_FAULT_STALL_AT(faults::Point::ShardWedge);

    // A packed filter hit is already the final answer (distance-only by
    // eligibility): its scratch was covered by the group's single
    // reservation, so reserving the per-request estimate here again
    // would double-count the fused batch against the budget.
    const bool prefilter_hit = prefilled && pre->filtered.found();

    // Memory-budget admission. The reservation is held for the whole
    // kernel call and released by RAII whichever way we leave.
    MemoryReservation reservation;
    bool downgrade = false;
    if (!prefilter_hit && budget_.enabled() && req.estimated_bytes > 0) {
        if (budget_.tryReserve(req.estimated_bytes)) {
            reservation = MemoryReservation(&budget_, req.estimated_bytes);
        } else if (config_.downgrade_under_pressure && !req.aligner &&
                   req.want_cigar &&
                   req.klass == align::LengthClass::Short) {
            // Long-class requests never downgrade: Hirschberg is O(m)
            // memory and O(n*m) time, both ruinous at Mbp scale, and
            // the streamed tier's O(window) reservation is already the
            // frugal option.
            const size_t frugal =
                kernel::AlignerRegistry::instance()
                    .require("hirschberg")
                    .scratch_bytes(req.pair.pattern.size(),
                                   req.pair.text.size(), {});
            if (!budget_.tryReserve(frugal)) {
                if (traced)
                    trace_.record(req.id, TraceEvent::Admission,
                                  trace_.nowUs(),
                                  StatusCode::ResourceExhausted);
                return Served(AlignOutcome(Status::resourceExhausted(
                    "memory budget exhausted (even for downgraded "
                    "traceback)")));
            }
            reservation = MemoryReservation(&budget_, frugal);
            downgrade = true;
        } else {
            if (traced)
                trace_.record(req.id, TraceEvent::Admission, trace_.nowUs(),
                              StatusCode::ResourceExhausted);
            return Served(AlignOutcome(Status::resourceExhausted(
                "estimated footprint exceeds the memory budget")));
        }
    }
    const i64 admitted_us = trace_.nowUs();
    if (traced)
        trace_.record(req.id, TraceEvent::Admission, admitted_us,
                      StatusCode::Ok,
                      prefilter_hit ? pre->reserved_share
                                    : reservation.bytes());

    try {
        if (GMX_INJECT_FAULT(faults::Point::AllocFail))
            throw std::bad_alloc();
        if (GMX_INJECT_FAULT(faults::Point::TaskError))
            throw std::runtime_error("injected spurious task error");
        align::AlignResult result;
        Served served(AlignOutcome(align::AlignResult{}));
        served.reserved_bytes =
            prefilter_hit ? pre->reserved_share : reservation.bytes();
        served.admitted_us = admitted_us;
        // Reset keeps the block (coalesced to the high-water mark), not
        // the contents.
        ScratchArena &arena = workerArena();
        arena.reset();
        if (req.aligner) {
            result = req.aligner(req.pair);
        } else if (downgrade) {
            KernelCounts counts;
            KernelContext ctx(req.cancel, &counts, &arena);
            Timer timer;
            result = align::hirschbergAlign(req.pair.pattern, req.pair.text,
                                            ctx);
            const KernelContext::Phases phases = ctx.takePhases();
            served.tiered = true;
            served.tier = Tier::Downgraded;
            served.cells = counts.cells;
            served.attempts.push_back(
                {Tier::Downgraded, counts.cells, timer.seconds() * 1e6,
                 true, static_cast<double>(phases.setup_us),
                 static_cast<double>(phases.kernel_us)});
            metrics_.downgraded.fetch_add(1, std::memory_order_relaxed);
        } else {
            CascadeOutcome outcome;
            if (prefilled) {
                // The filter tier already ran in a packed group; seed
                // the outcome with this lane's attempt and continue
                // through the unchanged banded/full tiers (a hit with
                // no cigar wanted returns immediately).
                FilterLane lane;
                lane.pair = &req.pair;
                lane.filtered = pre->filtered;
                lane.attempt = pre->attempt;
                lane.counts = pre->counts;
                outcome = cascadeContinueAfterFilter(
                    req.pair, config_.cascade, req.want_cigar, req.cancel,
                    arena, lane);
            } else {
                outcome = cascadeAlign(req.pair, config_.cascade,
                                       req.want_cigar, req.cancel, arena);
            }
            served.tiered = true;
            served.tier = outcome.tier;
            served.cells = outcome.counts.cells;
            served.attempts = std::move(outcome.attempts);
            result = std::move(outcome.result);
        }
        served.arena_peak_bytes = arena.peakBytes();
        served.outcome = AlignOutcome(std::move(result));
        return served;
    } catch (const StatusError &e) {
        return Served(AlignOutcome(e.status()));
    } catch (const std::bad_alloc &) {
        return Served(AlignOutcome(
            Status::resourceExhausted("allocation failed mid-request")));
    } catch (const FatalError &e) {
        return Served(AlignOutcome(Status::invalidInput(e.what())));
    } catch (const std::exception &e) {
        return Served(AlignOutcome(Status::internal(e.what())));
    } catch (...) {
        return Served(
            AlignOutcome(Status::internal("unknown aligner failure")));
    }
}

bool
Engine::filterBatchingActive() const
{
    switch (config_.filter_batching) {
      case FilterBatching::Off:
        return false;
      case FilterBatching::On:
        // The explicit arm for tests/benches: pack even on the portable
        // vector backend. GMX_FORCE_SCALAR still wins — "scalar" must
        // mean the per-request scalar cascade, full stop.
        return !kernel::forceScalar();
      case FilterBatching::Auto:
        return kernel::simdDispatchEnabled();
    }
    return false;
}

bool
Engine::batchFilterEligible(const Request &req) const
{
    // Lane compatibility rules (DESIGN.md §4k): cascade-routed,
    // distance-only (a cigar request's filter never answers, so packing
    // buys nothing and the memo-reuse path is better), pattern within
    // the batcher's width cap, and the default "bitap" filter kernel —
    // the one whose found-iff-d<=k contract the batch kernel reproduces
    // bit for bit. The effective k policy is engine-wide config, so
    // packed lanes are k-compatible by construction (each lane still
    // applies its own pair-derived k to the exact distance).
    return !req.aligner && !req.want_cigar &&
           req.klass == align::LengthClass::Short &&
           config_.cascade.enabled &&
           std::string_view(config_.cascade.filter_kernel) == "bitap" &&
           simd::batchLaneFits(req.pair);
}

void
Engine::runFilterGroups(std::vector<Request> &batch,
                        std::vector<FilterPrefill> &pre)
{
    std::vector<size_t> eligible;
    eligible.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
        if (batchFilterEligible(batch[i]))
            eligible.push_back(i);

    ScratchArena &arena = workerArena();
    for (size_t at = 0; at < eligible.size();) {
        const size_t take =
            std::min(simd::kBatchLanes, eligible.size() - at);
        // The runOne deadline pre-check, extended into the packer: a
        // request whose deadline expired while earlier groups (or the
        // queue) ran must not occupy a lane — runOne fast-fails it from
        // its unengaged prefill slot instead.
        std::array<size_t, simd::kBatchLanes> live{};
        size_t cnt = 0;
        for (size_t j = 0; j < take; ++j) {
            const size_t idx = eligible[at + j];
            if (batch[idx].cancel.check().ok())
                live[cnt++] = idx;
        }
        at += take;
        if (cnt < 2)
            continue; // singleton: the plain cascade path is the same work

        // One reservation for the whole group: the packed filter shares
        // one scratch block, so per-lane filter reservations would
        // double-count the batch. If even the group grant doesn't fit,
        // skip packing — each lane then takes its own admission gate.
        size_t max_pattern = 0;
        for (size_t j = 0; j < cnt; ++j)
            max_pattern = std::max(max_pattern,
                                   batch[live[j]].pair.pattern.size());
        const size_t group_bytes = simd::bpmBatchScratchBytes(max_pattern);
        MemoryReservation group_grant;
        if (budget_.enabled()) {
            if (!budget_.tryReserve(group_bytes))
                continue;
            group_grant = MemoryReservation(&budget_, group_bytes);
        }

        arena.reset();
        std::array<FilterLane, simd::kBatchLanes> lanes{};
        for (size_t j = 0; j < cnt; ++j) {
            lanes[j].pair = &batch[live[j]].pair;
            lanes[j].cancel = batch[live[j]].cancel;
        }
        cascadeFilterBatch({lanes.data(), cnt}, config_.cascade, arena);
        metrics_.recordFilterBatch(cnt);
        metrics_.noteArenaPeak(arena.peakBytes());

        for (size_t j = 0; j < cnt; ++j) {
            FilterPrefill &p = pre[live[j]];
            p.ran = true;
            p.status = lanes[j].status;
            p.filtered = lanes[j].filtered;
            p.attempt = lanes[j].attempt;
            p.counts = lanes[j].counts;
            p.reserved_share = group_grant.bytes() / cnt;
        }
        // group_grant releases here: misses re-enter the normal
        // per-request admission for their banded/full continuation.
    }
}

void
Engine::runRequests(std::vector<Request> batch)
{
    // Stamp worker pickup for the whole fused task up front: the lane
    // packer may run a request's filter tier before its runOne turn, and
    // a traced request's Dispatch span must precede that work.
    for (Request &req : batch) {
        req.dispatched = Clock::now();
        if (trace_.sampled(req.id))
            trace_.record(req.id, TraceEvent::Dispatch,
                          trace_.toUs(req.dispatched));
    }

    // Lane-pack compatible fused requests and run their filter tiers as
    // packed groups before the per-request loop.
    std::vector<FilterPrefill> pre(batch.size());
    if (batch.size() >= 2 && filterBatchingActive())
        runFilterGroups(batch, pre);

    for (size_t i = 0; i < batch.size(); ++i) {
        Request &req = batch[i];
        const bool traced = trace_.sampled(req.id);

        Served served = runOne(req, &pre[i]);

        const Clock::time_point done = Clock::now();
        const double queue_wait_s =
            std::chrono::duration<double>(req.dispatched - req.enqueued)
                .count();
        const double service_s =
            std::chrono::duration<double>(done - req.dispatched).count();
        const double total_s =
            std::chrono::duration<double>(done - req.enqueued).count();

        AlignOutcome &outcome = served.outcome;
        if (outcome.ok()) {
            metrics_.latency.record(total_s);
            metrics_.completed.fetch_add(1, std::memory_order_relaxed);
            if (served.tiered) {
                metrics_.recordTier(served.tier, served.reserved_bytes);
                metrics_.recordTimings(served.tier, queue_wait_s,
                                       service_s);
                metrics_.noteArenaPeak(served.arena_peak_bytes);
                for (const CascadeAttempt &a : served.attempts)
                    metrics_.recordAttempt(a.tier, a.cells, a.micros,
                                           a.setup_us, a.kernel_us);
            }
        } else {
            metrics_.failed.fetch_add(1, std::memory_order_relaxed);
            switch (outcome.status().code()) {
              case StatusCode::DeadlineExceeded:
                metrics_.deadline_missed.fetch_add(
                    1, std::memory_order_relaxed);
                break;
              case StatusCode::Cancelled:
                metrics_.cancelled.fetch_add(1, std::memory_order_relaxed);
                break;
              case StatusCode::ResourceExhausted:
                metrics_.resource_rejected.fetch_add(
                    1, std::memory_order_relaxed);
                break;
              default:
                break;
            }
        }

        if (traced) {
            // Tier-attempt spans get timestamps reconstructed backwards
            // from completion (each attempt's measured duration), clamped
            // into [admission, done] so rounding can never make the dumped
            // timeline run backwards.
            const i64 done_us = trace_.toUs(done);
            double total_us = 0;
            for (const CascadeAttempt &a : served.attempts)
                total_us += a.micros;
            i64 t_us = std::max(served.admitted_us,
                                done_us - static_cast<i64>(total_us));
            for (const CascadeAttempt &a : served.attempts) {
                trace_.recordTier(req.id, TraceEvent::TierAttempt, t_us,
                                  a.tier, StatusCode::Ok, a.cells);
                t_us = std::min(t_us + static_cast<i64>(a.micros), done_us);
            }
            if (served.tiered)
                trace_.recordTier(req.id, TraceEvent::Complete,
                                  trace_.toUs(done), served.tier,
                                  outcome.ok() ? StatusCode::Ok
                                               : outcome.status().code(),
                                  served.cells);
            else
                trace_.record(req.id, TraceEvent::Complete,
                              trace_.toUs(done),
                              outcome.ok() ? StatusCode::Ok
                                           : outcome.status().code(),
                              served.cells);
        }

        const auto threshold = config_.slow_request_threshold;
        if (threshold.count() > 0 &&
            total_s >= std::chrono::duration<double>(threshold).count()) {
            GMX_WARN("slow request id=%llu total=%.0fus queue_wait=%.0fus "
                     "service=%.0fus tier=%s status=%s",
                     static_cast<unsigned long long>(req.id),
                     total_s * 1e6, queue_wait_s * 1e6, service_s * 1e6,
                     served.tiered ? tierName(served.tier) : "none",
                     statusCodeName(outcome.ok()
                                        ? StatusCode::Ok
                                        : outcome.status().code()));
            SlowExemplar ex;
            ex.id = req.id;
            ex.has_tier = served.tiered;
            ex.tier = served.tier;
            ex.code =
                outcome.ok() ? StatusCode::Ok : outcome.status().code();
            ex.total_us = total_s * 1e6;
            ex.queue_wait_us = queue_wait_s * 1e6;
            ex.service_us = service_s * 1e6;
            ex.completed_us = trace_.toUs(done);
            slow_.note(ex);
        }

        req.promise.set_value(std::move(outcome));
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        inflight_ -= batch.size();
        if (inflight_ == 0 && queue_.empty())
            idle_.notify_all();
    }
}

void
Engine::drain()
{
    std::unique_lock<std::mutex> lk(mu_);
    idle_.wait(lk, [this] { return queue_.empty() && inflight_ == 0; });
}

void
Engine::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
    }
    // Wake everyone: blocked submitters get EngineStopped Results, and
    // the workers drain the queue, fulfilling every accepted future,
    // before they exit. Joined threads are no longer joinable, so a
    // second stop() joins nothing.
    work_cv_.notify_all();
    queue_not_full_.notify_all();
    for (std::thread &worker : workers_)
        if (worker.joinable())
            worker.join();
}

std::vector<Engine::AlignOutcome>
Engine::alignAll(const std::vector<seq::SequencePair> &pairs,
                 bool want_cigar)
{
    std::vector<std::future<AlignOutcome>> futures;
    futures.reserve(pairs.size());
    for (const auto &pair : pairs)
        futures.push_back(submit(pair, want_cigar));
    std::vector<AlignOutcome> results;
    results.reserve(pairs.size());
    for (auto &f : futures)
        results.push_back(f.get());
    return results;
}

MetricsSnapshot
Engine::metrics() const
{
    return metrics_.snapshot(
        workerCount(), batches_executed_.load(std::memory_order_relaxed),
        budget_.limit(), budget_.reserved(), budget_.peak());
}

} // namespace gmx::engine

/**
 * @file
 * The EQC execution engine: the paper's asynchronous master/client
 * protocol scheduled on an EventLoop. The clock is the only difference
 * between the two registry names:
 *
 *  - "virtual" runs on a VirtualClock: deterministic discrete-event
 *    replay, so a "40-hour" campaign replays in seconds, bit-identically
 *    for a fixed seed and for every fan-out thread count.
 *  - "threaded" runs on a SteadyClock at EqcOptions::hoursPerWallSecond:
 *    queue latencies become real waits and the wall time spent
 *    computing counts against EqcOptions::maxHours, so arrival order is
 *    decided by the machine (intentionally non-deterministic).
 *
 * Each client is an actor on the clock: it pulls the next cyclic task
 * from the master, samples its device's queue latency, and schedules
 * the gradient delivery at completion time. Because clients complete
 * at wildly different rates, gradients arrive stale — computed against
 * parameter snapshots several master updates old — which is exactly
 * the partially-asynchronous SGD regime of the paper's convergence
 * proof.
 *
 * Gradient *scheduling* and gradient *computation* are decoupled:
 * pulls happen in event order (beginProcess: latency sampling, Eq. 2
 * score, per-job RNG fork — all serial), while the heavy circuit
 * evaluations accumulate in a batch that is flushed through the
 * engine's TaskPool the first time an uncomputed delivery fires. At
 * t = 0 the whole ensemble pulls at once, so the flush fans one job
 * per client across the pool; each job owns a forked RNG stream and
 * writes its own slot, which keeps the trace bit-identical whether the
 * pool has 1 thread or 64 (see EqcOptions::engineThreads). Results
 * apply at the clock's time read after the flush, and compute never
 * overlaps RunContext::applyResult, so the context needs no lock.
 *
 * All protocol semantics (master update, adaptive cooldown, epoch
 * recording, telemetry) live in the shared RunContext; this engine
 * only owns the clock and the scheduling of client turns.
 */

#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/event_loop.h"
#include "common/task_pool.h"
#include "core/engine.h"

namespace eqc {

namespace {

class EventEngine final : public ExecutionEngine
{
  public:
    explicit EventEngine(bool wallClock) : wallClock_(wallClock) {}

    std::string
    name() const override
    {
        return wallClock_ ? "threaded" : "virtual";
    }

    void
    run(RunContext &ctx) override
    {
        const double scale = ctx.options().hoursPerWallSecond;
        if (wallClock_ && !(scale > 0.0 && std::isfinite(scale)))
            throw std::invalid_argument(
                "threaded engine: hoursPerWallSecond must be positive "
                "and finite");
        ctx.trace().label = wallClock_ ? "EQC-threaded" : "EQC";

        const std::size_t n = ctx.numClients();

        std::unique_ptr<TaskPool> own;
        if (ctx.options().engineThreads > 0)
            own = std::make_unique<TaskPool>(
                ctx.options().engineThreads);
        TaskPool &pool = own ? *own : TaskPool::shared();
        ctx.setEnginePool(&pool);

        // A wall clock's model hour 0 is its construction: start it
        // once the pool is up, right before the first pulls.
        std::unique_ptr<Clock> clock;
        if (wallClock_)
            clock = std::make_unique<SteadyClock>(1.0 / scale);
        else
            clock = std::make_unique<VirtualClock>();
        EventLoop loop(*clock);

        struct Slot
        {
            ClientNode::PendingJob job;
            ClientNode::Processed out;
            bool computed = false;
        };
        std::vector<Slot> slots(n);
        std::vector<std::size_t> batch;

        // Compute every pending job in one fan-out. Jobs of different
        // clients are independent (own backend, own forked stream) and
        // write disjoint slots, so the flush is bit-deterministic for
        // any chunking the pool picks.
        auto flush = [&] {
            if (batch.empty())
                return;
            pool.parallelJobs(
                batch.size(), [&](uint64_t b, uint64_t e) {
                    for (uint64_t i = b; i < e; ++i) {
                        Slot &s = slots[batch[i]];
                        s.out = ctx.ensemble()
                                    .client(batch[i])
                                    .finishProcess(s.job, &pool);
                        s.computed = true;
                    }
                });
            batch.clear();
        };

        std::function<void(std::size_t)> startClient =
            [&](std::size_t ci) {
            if (ctx.done())
                return;
            const double now = loop.now();
            if (now > ctx.options().maxHours)
                return; // client retires
            if (ctx.options().adaptive.enabled &&
                ctx.cooldownUntil(ci) > now) {
                loop.scheduleAt(ctx.cooldownUntil(ci),
                                [&, ci] { startClient(ci); });
                return;
            }
            ClientNode &client = ctx.ensemble().client(ci);
            slots[ci].job =
                client.beginProcess(ctx.master().nextTask(), now);
            slots[ci].computed = false;
            batch.push_back(ci);
            loop.schedule(slots[ci].job.latencyH, [&, ci] {
                if (!slots[ci].computed)
                    flush();
                ctx.applyResult(ci, slots[ci].out, loop.now());
                // Stop at the last epoch: the deliveries still queued
                // would be dropped anyway, and a wall clock would
                // sleep until each one was due.
                if (ctx.done())
                    loop.requestStop();
                else
                    startClient(ci);
            });
        };

        for (std::size_t ci = 0; ci < n; ++ci)
            loop.scheduleAt(0.0, [&, ci] { startClient(ci); });
        loop.run();

        ctx.finish();
        ctx.setEnginePool(nullptr); // pool dies with this frame
    }

  private:
    bool wallClock_;
};

} // namespace

std::unique_ptr<ExecutionEngine>
makeVirtualEngine()
{
    return std::make_unique<EventEngine>(false);
}

std::unique_ptr<ExecutionEngine>
makeThreadedEngine()
{
    return std::make_unique<EventEngine>(true);
}

} // namespace eqc

/**
 * @file
 * Systems example: the Ray-style deployment in real time. The
 * "threaded" engine is the deterministic benches' engine on a wall
 * clock: queue latencies become real waits, gradient computations fan
 * out over a TaskPool, and the wall time they take moves the model
 * clock, so arrival order depends on the machine. This is the same
 * MasterNode/ClientNode logic the deterministic benches use.
 *
 * Build & run:  ./build/examples/threaded_ensemble
 */

#include <cstdio>

#include "core/runtime.h"
#include "device/catalog.h"
#include "vqa/problem.h"

int
main()
{
    using namespace eqc;

    VqaProblem problem = makeHeisenbergVqe();
    std::vector<Device> devices = {
        deviceByName("ibmq_bogota"), deviceByName("ibmq_manila"),
        deviceByName("ibmq_quito"), deviceByName("ibmqx2"),
        deviceByName("ibmq_belem"), deviceByName("ibmq_lima"),
    };

    EqcOptions opts;
    opts.master.epochs = 30;
    opts.master.weightBounds = {0.5, 1.5};
    opts.maxHours = 1e9; // wall-clock compute counts as virtual time
    opts.seed = 9;
    opts.engine = "threaded"; // the event engine on a wall clock
    // Queue latencies here are tens of model seconds. At 5 model hours
    // per wall second they still outlast a gradient's compute time, so
    // arrival order is set by the latencies, not by lock-step flushes.
    opts.hoursPerWallSecond = 5.0;

    std::printf("launching %zu clients on the wall clock (1 virtual "
                "hour = 200 ms wall)...\n",
                devices.size());
    Runtime runtime;
    EqcTrace trace = runtime.submit(problem, devices, opts).take();

    std::printf("done: %zu epochs, final energy %.3f a.u.\n",
                trace.epochs.size(), finalEnergy(trace, 5));
    std::printf("gradient staleness: mean %.1f, max %.0f master "
                "updates\n",
                trace.staleness.mean(), trace.staleness.max());
    std::printf("jobs per device (wall-clock dependent):\n");
    for (const auto &[name, jobs] : trace.jobsPerDevice)
        std::printf("  %-18s %5d\n", name.c_str(), jobs);
    std::printf("\nRe-run this example: job counts will differ (real "
                "time),\nbut the energy must converge every "
                "time — the paper's appendix proof\nin action.\n");
    return 0;
}

/**
 * @file
 * Layer probes: replay a workload's own circuits, parameters and model
 * hours through the layers below the serving and training APIs, one
 * call at a time, and report the median wall time per call. These are
 * the per-layer figures the benchmark cannot get from spans around the
 * public API, because those layers are reached only from inside it.
 */

#include "probes.h"

#include <cmath>

#include "common/rng.h"
#include "common/task_pool.h"
#include "quantum/density_matrix.h"
#include "sim/fusion.h"
#include "transpile/transpiler.h"
#include "vqa/expectation.h"
#include "vqa/parameter_shift.h"

namespace perfbench {

namespace {

/** Keeps the probed calls' results observable to the optimizer. */
volatile uint64_t gSink = 0;

/** Median seconds per call of @p fn over @p reps timed calls. */
template <typename Fn>
double
medianCallS(int reps, Fn &&fn)
{
    std::vector<double> t;
    t.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const double t0 = wallNow();
        fn(i);
        t.push_back(wallNow() - t0);
    }
    return percentile(std::move(t), 0.5);
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

} // namespace

void
probeLayers(const ProbeInput &in, Metrics &out)
{
    using namespace eqc;
    TaskPool pool(1);
    std::vector<double> transpileUs, fuseUs, fusedOps, entriesUs, applyUs,
        bytes, warmUs, ctxUs, planUs, batchUs, gradUs;
    uint64_t sink = 0;

    // A one-qubit circuit whose only job is to build a fresh backend's
    // noise context at the probe hour before the plan-cold timing.
    QuantumCircuit tiny(1, 0);
    tiny.x(0);
    tiny.measureAll();

    for (std::size_t wi = 0; wi < in.circuits.size(); ++wi) {
        const QuantumCircuit &ansatz = in.circuits[wi].first;
        const PauliSum &obs = in.circuits[wi].second;
        const std::vector<double> &params = in.params[wi];
        const ExpectationEstimator est(obs, ansatz);
        for (const Device &dev : in.devices) {
            if (!dev.canRun(ansatz.numQubits()))
                continue;
            std::vector<TranspiledCircuit> compiled;
            for (const MeasurementGroup &g : est.groups()) {
                TranspiledCircuit tc;
                transpileUs.push_back(1e6 * medianCallS(3, [&](int) {
                    tc = transpile(g.circuit, dev.coupling);
                }));
                compiled.push_back(std::move(tc));
            }
            SimulatedQpu qpu(dev, in.seed);
            Rng rng(in.seed);
            for (const TranspiledCircuit &tc : compiled) {
                FusedProgram noisy;
                fuseUs.push_back(1e6 * medianCallS(4, [&](int i) {
                    noisy = fuseForSimulation(
                        tc.compact, i % 2 ? FusionMode::Full
                                          : FusionMode::NoisePreserving);
                }));
                noisy = fuseForSimulation(tc.compact,
                                          FusionMode::NoisePreserving);
                fusedOps.push_back(static_cast<double>(noisy.ops.size()));
                bytes.push_back(static_cast<double>(noisy.ops.size()) *
                                2.0 * 16.0 *
                                std::pow(4.0, noisy.numQubits));
                Complex e[16];
                entriesUs.push_back(1e6 * medianCallS(9, [&](int) {
                    for (const FusedOp &op : noisy.ops)
                        fusedEntries(noisy, op, params, e);
                    sink += static_cast<uint64_t>(e[0].real() != 0.0);
                }));
                DensityMatrix dm(noisy.numQubits);
                applyUs.push_back(1e6 * medianCallS(9, [&](int) {
                    dm.reset();
                    applyFusedProgram(noisy, params, dm);
                }));

                qpu.execute(tc, params, in.shots, in.atH, rng, false);
                const double warm = medianCallS(9, [&](int) {
                    qpu.execute(tc, params, in.shots, in.atH, rng, false);
                });
                // Each call at a model hour no earlier call used: the
                // noise context is rebuilt, the plan stays warm.
                const double fresh = medianCallS(9, [&](int i) {
                    qpu.execute(tc, params, in.shots,
                                in.atH + 1e-3 * (i + 1) +
                                    1e-2 * static_cast<double>(
                                               warmUs.size()),
                                rng, false);
                });
                SimulatedQpu cold(dev, in.seed);
                const TranspiledCircuit tinyTc =
                    transpile(tiny, dev.coupling);
                cold.execute(tinyTc, {}, in.shots, in.atH, rng, false);
                const double t0 = wallNow();
                cold.execute(tc, params, in.shots, in.atH, rng, false);
                const double first = wallNow() - t0;
                warmUs.push_back(1e6 * warm);
                ctxUs.push_back(1e6 * (fresh - warm));
                planUs.push_back(1e6 * (first - warm));
            }

            // One gradient job: the +/- shifted bindings of parameter 0.
            std::vector<double> plus = params, minus = params;
            plus[0] += M_PI / 2;
            minus[0] -= M_PI / 2;
            std::vector<EstimateJob> jobs = {{&compiled, &plus},
                                             {&compiled, &minus}};
            batchUs.push_back(1e6 * medianCallS(5, [&](int) {
                sink += est.estimateBatch(qpu, jobs, in.shots, in.atH, rng,
                                          ShotMode::Gaussian, true, &pool)
                            .size();
            }));
            gradUs.push_back(1e6 * medianCallS(5, [&](int) {
                sink += static_cast<uint64_t>(
                    gradientParamShift(est, qpu, compiled, params, 0,
                                       in.shots, in.atH, rng,
                                       ShotMode::Gaussian,
                                       ShiftMode::WholeParameter, true,
                                       &pool)
                        .circuitsRun);
            }));
        }
    }

    Rng root(in.seed);
    const int forks = 20000;
    const double forkS = medianCallS(5, [&](int) {
        for (int i = 0; i < forks; ++i)
            sink += root.fork(static_cast<uint64_t>(i)).seed();
    });

    out.emplace_back("transpile.us_per_circuit", mean(transpileUs));
    out.emplace_back("sim.fuse_us", mean(fuseUs));
    out.emplace_back("sim.fused_ops", mean(fusedOps));
    out.emplace_back("sim.entries_us", mean(entriesUs));
    out.emplace_back("quantum.apply_us", mean(applyUs));
    out.emplace_back("quantum.bytes_per_circuit", mean(bytes));
    out.emplace_back("device.execute_warm_us", mean(warmUs));
    out.emplace_back("device.noise_ctx_us", mean(ctxUs));
    out.emplace_back("device.plan_cold_us", mean(planUs));
    out.emplace_back("common.rng_fork_ns", 1e9 * forkS / forks);
    out.emplace_back("vqa.estimate_batch_us", mean(batchUs));
    out.emplace_back("vqa.grad_us", mean(gradUs));
    gSink = sink;
}

} // namespace perfbench

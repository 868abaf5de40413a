#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <utility>

#include "device/backend.h"
#include "device/catalog.h"
#include "quantum/statevector.h"
#include "sim/fusion.h"

namespace eqc {
namespace {

TEST(Catalog, ContainsAllTableIDevices)
{
    auto devices = ibmqCatalog();
    ASSERT_EQ(devices.size(), 11u);
    std::set<std::string> names;
    for (const Device &d : devices)
        names.insert(d.name);
    for (const char *want :
         {"ibmq_lima", "ibmqx2", "ibmq_belem", "ibmq_quito",
          "ibmq_manila", "ibmq_santiago", "ibmq_bogota", "ibm_lagos",
          "ibmq_casablanca", "ibmq_toronto", "ibmq_manhattan"}) {
        EXPECT_TRUE(names.count(want)) << want;
    }
}

TEST(Catalog, QubitCountsMatchTableI)
{
    EXPECT_EQ(deviceByName("ibmq_lima").numQubits, 5);
    EXPECT_EQ(deviceByName("ibmqx2").numQubits, 5);
    EXPECT_EQ(deviceByName("ibm_lagos").numQubits, 7);
    EXPECT_EQ(deviceByName("ibmq_casablanca").numQubits, 7);
    EXPECT_EQ(deviceByName("ibmq_toronto").numQubits, 27);
    EXPECT_EQ(deviceByName("ibmq_manhattan").numQubits, 65);
}

TEST(Catalog, QuantumVolumesMatchTableI)
{
    EXPECT_EQ(deviceByName("ibmq_lima").quantumVolume, 8);
    EXPECT_EQ(deviceByName("ibmqx2").quantumVolume, 8);
    EXPECT_EQ(deviceByName("ibmq_belem").quantumVolume, 16);
    EXPECT_EQ(deviceByName("ibmq_bogota").quantumVolume, 32);
}

TEST(Catalog, DeterministicForSameSeed)
{
    Device a = deviceByName("ibmq_bogota", 99);
    Device b = deviceByName("ibmq_bogota", 99);
    EXPECT_DOUBLE_EQ(a.baseCalibration.qubits[0].t1Us,
                     b.baseCalibration.qubits[0].t1Us);
    EXPECT_DOUBLE_EQ(a.baseCalibration.avgCxError(),
                     b.baseCalibration.avgCxError());
}

TEST(Catalog, X2IsNoisiestSmallDevice)
{
    Device x2 = deviceByName("ibmqx2");
    Device bogota = deviceByName("ibmq_bogota");
    EXPECT_GT(x2.baseCalibration.avgCxError(),
              bogota.baseCalibration.avgCxError());
    EXPECT_GT(x2.baseCalibration.avgReadoutError(),
              bogota.baseCalibration.avgReadoutError());
}

TEST(Catalog, EvaluationEnsembleExcludesManhattan)
{
    auto ens = evaluationEnsemble();
    EXPECT_EQ(ens.size(), 10u);
    for (const Device &d : ens)
        EXPECT_NE(d.name, "ibmq_manhattan");
}

TEST(Catalog, CalibrationCoversTopology)
{
    for (const Device &d : ibmqCatalog()) {
        EXPECT_EQ(d.baseCalibration.qubits.size(),
                  static_cast<std::size_t>(d.numQubits))
            << d.name;
        EXPECT_EQ(d.baseCalibration.cxError.size(),
                  d.coupling.edges().size())
            << d.name;
        for (const auto &[a, b] : d.coupling.edges()) {
            EXPECT_GT(d.baseCalibration.cxErrorFor(a, b), 0.0);
            EXPECT_GT(d.baseCalibration.cxTimeFor(a, b), 0.0);
        }
    }
}

TEST(Calibration, CrosstalkPenalizesDenseTopologies)
{
    // Same base parameters, denser graph -> higher mean CX error.
    Rng rng(5);
    auto sparse = synthesizeCalibration(CouplingMap::line(5), rng, 100,
                                        1.0, 3e-4, 1e-2, 2e-2, 0.1);
    auto dense = synthesizeCalibration(CouplingMap::bowtie(), rng, 100,
                                       1.0, 3e-4, 1e-2, 2e-2, 0.1);
    EXPECT_GT(dense.avgCxError(), sparse.avgCxError());
}

TEST(Calibration, CircuitDurationAsapSchedule)
{
    CalibrationSnapshot cal;
    cal.qubits.resize(2);
    cal.gate1qTimeNs = 40.0;
    cal.readoutTimeNs = 4000.0;
    cal.cxError[{0, 1}] = 1e-2;
    cal.cxTimeNs[{0, 1}] = 400.0;

    QuantumCircuit c(2, 0);
    c.sx(0);       // 40ns on q0
    c.sx(1);       // 40ns on q1 (parallel)
    c.cx(0, 1);    // 400ns, starts at 40
    c.measure(0);  // 4000ns, starts at 440
    c.measure(1);
    EXPECT_NEAR(circuitDurationUs(c, cal), (40 + 400 + 4000) / 1000.0,
                1e-9);
}

TEST(Drift, ErrorsGrowSinceCalibration)
{
    Device d = deviceByName("ibmq_bogota");
    CalibrationTracker tracker(d.baseCalibration, d.drift, Rng(3));
    double e0 = tracker.actual(0.1).avgCxError();
    double e12 = tracker.actual(12.0).avgCxError();
    EXPECT_GT(e12, e0);
    EXPECT_GT(tracker.errorInflation(12.0),
              tracker.errorInflation(0.1));
}

TEST(Drift, ReportedStaysFrozenBetweenCalibrations)
{
    Device d = deviceByName("ibmq_bogota");
    CalibrationTracker tracker(d.baseCalibration, d.drift, Rng(3));
    auto r1 = tracker.reported(1.0);
    auto r2 = tracker.reported(10.0);
    // Same calibration interval: identical reported values.
    EXPECT_DOUBLE_EQ(r1.avgCxError(), r2.avgCxError());
    EXPECT_DOUBLE_EQ(r1.timeH, r2.timeH);
}

TEST(Drift, RecalibrationResetsInflation)
{
    Device d = deviceByName("ibmq_bogota");
    // Disable latent noise to isolate the pure staleness ramp.
    d.drift.latentSigma = 0.0;
    CalibrationTracker tracker(d.baseCalibration, d.drift, Rng(3));
    // Just before vs just after the second calibration.
    double calTime = -1.0;
    for (double t = 1.0; t < 100.0; t += 0.25) {
        if (tracker.lastCalibrationTime(t) > 0.0) {
            calTime = tracker.lastCalibrationTime(t);
            break;
        }
    }
    ASSERT_GT(calTime, 0.0);
    EXPECT_GT(tracker.errorInflation(calTime - 0.1), 1.05);
    EXPECT_LT(tracker.errorInflation(calTime + 0.1), 1.05);
}

TEST(Drift, IncidentsMultiplyErrors)
{
    Device d = deviceByName("ibmq_casablanca");
    DriftParams p = d.drift;
    p.incidentRatePerHour = 0.05; // force frequent incidents
    CalibrationTracker tracker(d.baseCalibration, p, Rng(11));
    bool sawIncident = false;
    for (double t = 0.0; t < 300.0; t += 0.5) {
        if (tracker.inIncident(t)) {
            sawIncident = true;
            EXPECT_GT(tracker.errorInflation(t), 2.0);
            break;
        }
    }
    EXPECT_TRUE(sawIncident);
}

TEST(Drift, DeterministicTimeline)
{
    Device d = deviceByName("ibmq_toronto");
    CalibrationTracker a(d.baseCalibration, d.drift, Rng(7));
    CalibrationTracker b(d.baseCalibration, d.drift, Rng(7));
    for (double t : {0.5, 13.0, 77.7, 200.0})
        EXPECT_DOUBLE_EQ(a.actual(t).avgCxError(),
                         b.actual(t).avgCxError());
}

/** Bitwise equality of two doubles (distinguishes signed zeros). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool
sameBits(const QubitCalibration &a, const QubitCalibration &b)
{
    return sameBits(a.t1Us, b.t1Us) && sameBits(a.t2Us, b.t2Us) &&
           sameBits(a.gate1qError, b.gate1qError) &&
           sameBits(a.readout.p01, b.readout.p01) &&
           sameBits(a.readout.p10, b.readout.p10) &&
           sameBits(a.coherentRxRad, b.coherentRxRad);
}

bool
sameBits(const CalibrationSnapshot &a, const CalibrationSnapshot &b)
{
    if (!sameBits(a.timeH, b.timeH) || a.qubits.size() != b.qubits.size())
        return false;
    for (std::size_t q = 0; q < a.qubits.size(); ++q)
        if (!sameBits(a.qubits[q], b.qubits[q]))
            return false;
    auto sameMap = [](const auto &x, const auto &y) {
        if (x.size() != y.size())
            return false;
        for (auto i = x.begin(), j = y.begin(); i != x.end(); ++i, ++j)
            if (i->first != j->first || !sameBits(i->second, j->second))
                return false;
        return true;
    };
    return sameMap(a.cxError, b.cxError) &&
           sameMap(a.cxTimeNs, b.cxTimeNs) &&
           sameMap(a.cxPhaseRad, b.cxPhaseRad);
}

TEST(Drift, PerEntryDerivationMatchesActualSnapshot)
{
    Device d = deviceByName("ibmq_toronto");
    d.drift.incidentRatePerHour = 0.05; // include incident inflation
    CalibrationTracker tracker(d.baseCalibration, d.drift, Rng(5));
    for (double t : {0.0, 0.4, 7.25, 23.9, 61.0, 150.5}) {
        const CalibrationSnapshot snap = tracker.actual(t);
        const CalibrationTracker::Drift drift = tracker.driftAt(t);
        for (std::size_t q = 0; q < snap.qubits.size(); ++q)
            EXPECT_TRUE(sameBits(tracker.actualQubit(drift, q),
                                 snap.qubits[q]))
                << "t=" << t << " q=" << q;
        for (const auto &[pair, v] : d.baseCalibration.cxError)
            EXPECT_TRUE(sameBits(
                CalibrationTracker::actualCxError(drift, v),
                snap.cxError.at(pair)));
        for (const auto &[pair, v] : d.baseCalibration.cxPhaseRad)
            EXPECT_TRUE(sameBits(
                CalibrationTracker::actualCxPhase(drift, v),
                snap.cxPhaseRad.at(pair)));
    }
}

TEST(Drift, ReportedIsAFunctionOfItsKey)
{
    Device d = deviceByName("ibmq_bogota");
    CalibrationTracker tracker(d.baseCalibration, d.drift, Rng(3));
    // 0.1 h and 0.9 h share the first coherence-refresh step; 1.2 h
    // starts the next one.
    const auto k1 = tracker.reportedKey(0.1);
    EXPECT_TRUE(k1 == tracker.reportedKey(0.9));
    EXPECT_FALSE(k1 == tracker.reportedKey(1.2));
    EXPECT_TRUE(sameBits(tracker.reported(0.1), tracker.reported(0.9)));
}

TEST(Backend, ReportedCalibrationCacheReturnsTrackerBits)
{
    Device d = deviceByName("ibmq_casablanca");
    SimulatedQpu qpu(d, 4);
    // Same step, next step, back again, another cycle, and repeats:
    // every answer must equal the tracker's, hit or miss.
    for (double t : {0.1, 0.5, 0.95, 1.2, 0.3, 30.5, 30.7, 30.7, 0.2})
        EXPECT_TRUE(sameBits(qpu.reportedCalibration(t),
                             qpu.tracker().reported(t)))
            << "t=" << t;
}

/** |++> -> CX -> H H: |00> ideally, sensitive to every error term. */
QuantumCircuit
coherenceProbe()
{
    QuantumCircuit c(2, 0);
    c.h(0);
    c.h(1);
    c.cx(0, 1);
    c.h(0);
    c.h(1);
    c.measureAll();
    return c;
}

TEST(Backend, CoherentOnlyErrorsAreNotDropped)
{
    const Device ideal = makeIdealDevice(2);
    const TranspiledCircuit tc = transpile(coherenceProbe(), ideal.coupling);
    Rng rng(1);
    SimulatedQpu idealQpu(ideal, 1);
    const double pIdeal = idealQpu.execute(tc, {}, 0, 0.5, rng, false)
                              .probabilities[0];
    EXPECT_NEAR(pIdeal, 1.0, 1e-12);

    // A device whose only error is coherent SX/X over-rotation, a CX
    // ZZ phase, or pure dephasing must not take the noiseless path.
    for (int variant = 0; variant < 3; ++variant) {
        Device dev = ideal;
        if (variant == 0)
            dev.baseCalibration.qubits[0].coherentRxRad = 0.2;
        else if (variant == 1)
            dev.baseCalibration.cxPhaseRad[{0, 1}] = 0.3;
        else
            for (auto &q : dev.baseCalibration.qubits)
                q.t2Us = 0.05;
        SimulatedQpu qpu(dev, 1);
        const double p =
            qpu.execute(tc, {}, 0, 0.5, rng, false).probabilities[0];
        EXPECT_LT(p, 1.0 - 1e-4) << "variant " << variant;
    }
}

TEST(Backend, IdealDeviceTakesStatevectorFastPath)
{
    const Device ideal = makeIdealDevice(3);
    QuantumCircuit c(3, 1);
    c.h(0);
    c.ry(1, ParamExpr::symbol(0));
    c.cx(0, 1);
    c.cx(1, 2);
    c.rz(2, ParamExpr::symbol(0, 0.5, 0.25));
    c.measureAll();
    const TranspiledCircuit tc = transpile(c, ideal.coupling);
    const std::vector<double> params = {0.7};
    SimulatedQpu qpu(ideal, 1);
    Rng rng(1);
    const JobResult r = qpu.execute(tc, params, 0, 3.0, rng, false);

    Statevector sv(tc.compact.numQubits());
    applyFusedProgram(fuseForSimulation(tc.compact, FusionMode::Full),
                      params, sv);
    const std::vector<double> expect = sv.probabilities();
    ASSERT_EQ(r.probabilities.size(), expect.size());
    EXPECT_EQ(std::memcmp(r.probabilities.data(), expect.data(),
                          expect.size() * sizeof(double)),
              0);
}

/** A 4-qubit GHZ-style circuit with one bound parameter. */
QuantumCircuit
ghzProbe()
{
    QuantumCircuit c(4, 1);
    c.h(0);
    for (int q = 0; q + 1 < 4; ++q)
        c.cx(q, q + 1);
    c.ry(3, ParamExpr::symbol(0));
    c.measureAll();
    return c;
}

/** GHZ-style again, but fanned out from qubit 0 (another layout). */
QuantumCircuit
starProbe()
{
    QuantumCircuit c(4, 1);
    c.h(0);
    for (int q = 1; q < 4; ++q)
        c.cx(0, q);
    c.ry(3, ParamExpr::symbol(0));
    c.measureAll();
    return c;
}

bool
sameProbabilities(const JobResult &a, const JobResult &b)
{
    return a.probabilities.size() == b.probabilities.size() &&
           std::memcmp(a.probabilities.data(), b.probabilities.data(),
                       a.probabilities.size() * sizeof(double)) == 0;
}

TEST(Backend, NoiseCoverageMissRebuildsBitIdentically)
{
    // Two layouts on the 27-qubit device: the second circuit executed
    // at an already-cached hour needs qubits and pairs the first did
    // not touch, so its context is rebuilt with wider coverage.
    const Device dev = deviceByName("ibmq_toronto");
    TranspileOptions trivial;
    trivial.useGreedyLayout = false;
    const TranspiledCircuit a = transpile(ghzProbe(), dev.coupling, trivial);
    const TranspiledCircuit b = transpile(ghzProbe(), dev.coupling);
    const std::set<int> physA(a.compactToPhysical.begin(),
                              a.compactToPhysical.end());
    bool disjoint = false;
    for (int p : b.compactToPhysical)
        disjoint = disjoint || physA.count(p) == 0;
    ASSERT_TRUE(disjoint);

    const std::vector<double> params = {0.4};
    const double t = 5.5;
    auto run = [&](const TranspiledCircuit &first,
                   const TranspiledCircuit &second) {
        SimulatedQpu qpu(dev, 9);
        Rng rng(1);
        JobResult r1 = qpu.execute(first, params, 0, t, rng, false);
        JobResult r2 = qpu.execute(second, params, 0, t, rng, false);
        JobResult r1Again = qpu.execute(first, params, 0, t, rng, false);
        EXPECT_TRUE(sameProbabilities(r1, r1Again));
        return std::make_pair(r1, r2);
    };
    const auto ab = run(a, b);
    const auto ba = run(b, a);
    EXPECT_TRUE(sameProbabilities(ab.first, ba.second));
    EXPECT_TRUE(sameProbabilities(ab.second, ba.first));
}

TEST(Backend, ConcurrentLayoutsOnOneQpuGiveSameBits)
{
    // Threads registering plans and rebuilding contexts for different
    // layouts at shared hours must leave every result as a lone run's.
    const Device dev = deviceByName("ibmq_toronto");
    TranspileOptions trivial;
    trivial.useGreedyLayout = false;
    const TranspiledCircuit circuits[4] = {
        transpile(ghzProbe(), dev.coupling, trivial),
        transpile(ghzProbe(), dev.coupling),
        transpile(starProbe(), dev.coupling, trivial),
        transpile(starProbe(), dev.coupling)};
    const std::vector<double> params = {0.8};
    const double hours[3] = {1.0, 1.5, 2.0};

    JobResult expect[4][3];
    for (int c = 0; c < 4; ++c)
        for (int h = 0; h < 3; ++h) {
            SimulatedQpu lone(dev, 6);
            Rng rng(1);
            expect[c][h] =
                lone.execute(circuits[c], params, 0, hours[h], rng, false);
        }

    // Each round starts from a fresh QPU and releases its threads
    // together, so the first sights of all four plans overlap.
    const int kThreads = 4;
    int mismatches[kThreads] = {};
    for (int round = 0; round < 64; ++round) {
        SimulatedQpu shared(dev, 6);
        std::atomic<int> waiting{kThreads};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                waiting.fetch_sub(1);
                while (waiting.load() > 0)
                    std::this_thread::yield();
                Rng rng(1);
                for (int i = 0; i < 8; ++i) {
                    const int c = (t + i) % 4, h = (t + round + i / 4) % 3;
                    if (!sameProbabilities(
                            shared.execute(circuits[c], params, 0, hours[h],
                                           rng, false),
                            expect[c][h]))
                        ++mismatches[t];
                }
            });
        for (std::thread &th : threads)
            th.join();
    }
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(Backend, MovedQpuGivesSameBits)
{
    const Device dev = deviceByName("ibmq_toronto");
    TranspileOptions trivial;
    trivial.useGreedyLayout = false;
    const TranspiledCircuit a = transpile(ghzProbe(), dev.coupling, trivial);
    const TranspiledCircuit b = transpile(ghzProbe(), dev.coupling);
    const std::vector<double> params = {1.1};

    // Warm the plan cache, a noise context and its coverage, then move.
    SimulatedQpu source(dev, 2);
    Rng rng(1);
    source.execute(a, params, 0, 2.0, rng, false);
    SimulatedQpu moved(std::move(source));
    SimulatedQpu fresh(dev, 2);
    for (double t : {2.0, 9.0})
        for (const TranspiledCircuit *tc : {&a, &b})
            EXPECT_TRUE(sameProbabilities(
                moved.execute(*tc, params, 0, t, rng, false),
                fresh.execute(*tc, params, 0, t, rng, false)))
                << "t=" << t;
}

TEST(QueueModel, CongestionIsPeriodic)
{
    QueueParams p;
    p.congestionAmplitude = 1.0;
    p.congestionPeriodH = 24.0;
    QueueModel q(p);
    EXPECT_NEAR(q.congestionFactor(0.0), q.congestionFactor(24.0), 1e-9);
    EXPECT_GT(q.congestionFactor(6.0), q.congestionFactor(18.0));
}

TEST(QueueModel, MaintenanceWindows)
{
    QueueParams p;
    p.maintenancePeriodH = 10.0;
    p.maintenanceDurationH = 2.0;
    p.maintenanceOffsetH = 0.0;
    QueueModel q(p);
    EXPECT_TRUE(q.inMaintenance(0.5));
    EXPECT_FALSE(q.inMaintenance(3.0));
    EXPECT_TRUE(q.inMaintenance(10.5));
    EXPECT_NEAR(q.maintenanceRemainingH(0.5), 1.5, 1e-9);
}

TEST(QueueModel, ExecutionTimeScalesWithShotsAndCircuits)
{
    QueueParams p;
    p.jobOverheadS = 1.0;
    p.resetTimeUs = 250.0;
    QueueModel q(p);
    double e1 = q.executionTimeS(10.0, 8192, 1);
    double e2 = q.executionTimeS(10.0, 8192, 2);
    EXPECT_NEAR(e2 - e1, e1 - 1.0, 1e-9); // linear in circuits
    EXPECT_GT(q.executionTimeS(10.0, 16384, 1), e1);
}

TEST(QueueModel, LatencyOrderingAcrossDevices)
{
    // Manhattan's sampled latency dwarfs x2's.
    Device x2 = deviceByName("ibmqx2");
    Device man = deviceByName("ibmq_manhattan");
    QueueModel qx(x2.queue), qm(man.queue);
    Rng r1(5), r2(5);
    double sx = 0, sm = 0;
    for (int i = 0; i < 50; ++i) {
        sx += qx.jobLatencyS(i * 0.3, 10.0, 8192, 6, r1);
        sm += qm.jobLatencyS(i * 0.3, 10.0, 8192, 6, r2);
    }
    EXPECT_GT(sm, 20.0 * sx);
}

TEST(Backend, IdealDeviceGivesExactDistribution)
{
    Device ideal = makeIdealDevice(2);
    SimulatedQpu qpu(ideal, 1);
    QuantumCircuit bell(2, 0);
    bell.h(0);
    bell.cx(0, 1);
    bell.measureAll();
    TranspiledCircuit tc = transpile(bell, ideal.coupling);
    Rng rng(2);
    JobResult r = qpu.execute(tc, {}, 8192, 0.0, rng, true);
    ASSERT_EQ(r.probabilities.size(), 4u);
    EXPECT_NEAR(r.probabilities[0], 0.5, 1e-12);
    EXPECT_NEAR(r.probabilities[3], 0.5, 1e-12);
    uint64_t total = 0;
    for (uint64_t c : r.counts)
        total += c;
    EXPECT_EQ(total, 8192u);
}

TEST(Backend, NoisyDeviceDegradesGhz)
{
    Device dev = deviceByName("ibmqx2");
    SimulatedQpu qpu(dev, 1);
    QuantumCircuit ghz(4, 0);
    ghz.h(0);
    for (int q = 0; q + 1 < 4; ++q)
        ghz.cx(q, q + 1);
    ghz.measureAll();
    TranspiledCircuit tc = transpile(ghz, dev.coupling);
    Rng rng(2);
    JobResult r = qpu.execute(tc, {}, 8192, 0.0, rng, false);
    // Success probability strictly below 1 but far above uniform.
    int n = tc.compact.numQubits();
    uint64_t all1 = 0;
    for (int l = 0; l < 4; ++l)
        all1 |= uint64_t{1} << tc.logicalToCompact[l];
    double pGood = r.probabilities[0] + r.probabilities[all1];
    EXPECT_LT(pGood, 0.995);
    EXPECT_GT(pGood, 2.0 / (1 << n));
    double totalP = 0;
    for (double p : r.probabilities)
        totalP += p;
    EXPECT_NEAR(totalP, 1.0, 1e-9);
}

TEST(Backend, NoiseWorsensWithStaleness)
{
    Device dev = deviceByName("ibmq_casablanca");
    // Remove incidents so only smooth drift is at play.
    dev.drift.incidentRatePerHour = 0.0;
    SimulatedQpu qpu(dev, 1);
    QuantumCircuit ghz(4, 0);
    ghz.h(0);
    for (int q = 0; q + 1 < 4; ++q)
        ghz.cx(q, q + 1);
    ghz.measureAll();
    TranspiledCircuit tc = transpile(ghz, dev.coupling);
    Rng rng(2);
    double calTime = qpu.tracker().lastCalibrationTime(10.0);
    JobResult fresh =
        qpu.execute(tc, {}, 0, calTime + 0.1, rng, false);
    JobResult stale =
        qpu.execute(tc, {}, 0, calTime + 15.0, rng, false);
    uint64_t all1 = 0;
    for (int l = 0; l < 4; ++l)
        all1 |= uint64_t{1} << tc.logicalToCompact[l];
    double pFresh = fresh.probabilities[0] + fresh.probabilities[all1];
    double pStale = stale.probabilities[0] + stale.probabilities[all1];
    EXPECT_GT(pFresh, pStale);
}

} // namespace
} // namespace eqc

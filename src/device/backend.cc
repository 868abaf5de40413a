#include "device/backend.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "quantum/density_matrix.h"
#include "quantum/statevector.h"
#include "sim/fusion.h"

namespace eqc {

struct SimulatedQpu::ExecPlan
{
    int numQubits = 0;
    /** NoisePreserving fusion: the density-matrix (noisy) path. */
    FusedProgram noisy;
    /** Full fusion: the noiseless statevector fast path. */
    FusedProgram ideal;
    /** Compact qubit -> physical id. */
    std::vector<int> physOf;
    /** Compact qubit -> noise-context qubit slot. */
    std::vector<int> qubitSlot;
    /**
     * Per op of `noisy`: the CX pair's noise-context slot; -1 for other
     * ops and for a CX on a pair without calibrated CX noise.
     */
    std::vector<int> cxSlot;
    /** Qubit and pair slots a context must cover to run this plan. */
    std::size_t needQubits = 0, needPairs = 0;
    /** MEASURE targets (compact qubits) in program order. */
    std::vector<int> measured;
    /**
     * Wall-clock duration of one execution (microseconds). Gate times
     * never drift (only error rates and coherences do), so this is a
     * pure function of the circuit and the base calibration.
     */
    double durationUs = 0.0;
    /** Exact structural identity, checked on every cache hit. */
    std::vector<uint64_t> signature;
};

struct SimulatedQpu::NoiseContext
{
    double timeH = 0.0;
    /** Statevector fast path: no slot is built, any plan is covered. */
    bool noiseless = false;

    /** Per qubit slot. */
    struct QubitNoise
    {
        /** Thermal-relaxation factors for the 1q gate time. */
        double g1Gamma = 0.0, g1Coherence = 1.0;
        /** Coherent RX miscalibration, precompiled. */
        bool hasRx = false;
        std::array<Complex, 4> rx;
        /**
         * Post-gate noise superoperator for physical 1q gates: the 4x4
         * composition depolarizing(gate1qError) * thermal(1q gate
         * time) over the vectorized sub-index k + 2b. execute() left-
         * multiplies it onto each fused unitary's U (x) conj(U) so the
         * whole gate+noise sequence costs a single kernel pass.
         */
        std::array<Complex, 16> n1;
        /** n1 is the identity and no rx: plain unitary apply suffices. */
        bool n1Trivial = false;
        ReadoutError readout;
    };
    std::vector<QubitNoise> qubits;

    /** Per pair slot: CX noise. */
    struct CxNoise
    {
        double err = 0.0;
        bool hasZz = false;
        Complex zz[4]; ///< residual ZZ phase (diag; swap-symmetric)
        /** No depolarizing / thermal: skip the noise pass. */
        bool trivial = false;
        /** Thermal factors over the CX duration per endpoint. */
        double gammaLo = 0.0, cohLo = 1.0;
        double gammaHi = 0.0, cohHi = 1.0;
    };
    std::vector<CxNoise> cx;

    bool covers(const ExecPlan &plan) const
    {
        return noiseless || (qubits.size() >= plan.needQubits &&
                             cx.size() >= plan.needPairs);
    }
};

namespace {

/**
 * Feed every word of a circuit's structural identity (width, parameter
 * table, physical mapping, each op with its angle expressions) to @p f.
 * Used twice per execute: once hashing, once verifying the cached plan
 * — both passes allocation-free.
 */
template <typename Fn>
void
forEachSignatureWord(const TranspiledCircuit &tc, Fn &&f)
{
    const QuantumCircuit &c = tc.compact;
    f(static_cast<uint64_t>(c.numQubits()));
    f(static_cast<uint64_t>(c.numParams()));
    for (int p : tc.compactToPhysical)
        f(static_cast<uint64_t>(p) + 1);
    for (const GateOp &op : c.ops()) {
        f((static_cast<uint64_t>(op.type) << 32) |
          (static_cast<uint64_t>(static_cast<uint16_t>(op.qubits[0] + 1))
           << 16) |
          static_cast<uint64_t>(static_cast<uint16_t>(op.qubits[1] + 1)));
        for (const ParamExpr &pe : op.params) {
            f(static_cast<uint64_t>(static_cast<int64_t>(pe.index)));
            uint64_t bits;
            std::memcpy(&bits, &pe.scale, sizeof(bits));
            f(bits);
            std::memcpy(&bits, &pe.offset, sizeof(bits));
            f(bits);
        }
    }
}

uint64_t
signatureHash(const TranspiledCircuit &tc)
{
    uint64_t h = 0xCBF29CE484222325ULL; // FNV-1a 64
    forEachSignatureWord(tc, [&](uint64_t w) {
        h ^= w;
        h *= 0x100000001B3ULL;
    });
    return h;
}

bool
signatureMatches(const TranspiledCircuit &tc,
                 const std::vector<uint64_t> &sig)
{
    bool match = true;
    std::size_t i = 0;
    forEachSignatureWord(tc, [&](uint64_t w) {
        if (match && (i >= sig.size() || sig[i] != w))
            match = false;
        ++i;
    });
    return match && i == sig.size();
}

/** Thermal-relaxation factors for @p qc over @p timeUs. */
void
thermalFactors(const QubitCalibration &qc, double timeUs, double &gamma,
               double &coherence)
{
    double t2 = std::min(qc.t2Us, 2.0 * qc.t1Us);
    gamma = 1.0 - std::exp(-timeUs / qc.t1Us);
    coherence = std::exp(-timeUs / t2);
}

/**
 * c = a * b for row-major sub x sub matrices (composing a channel
 * superoperator onto a unitary's U (x) conj(U) in execute()).
 */
void
matMul(Complex *c, const Complex *a, const Complex *b, int sub)
{
    for (int r = 0; r < sub; ++r)
        for (int col = 0; col < sub; ++col) {
            Complex s(0, 0);
            for (int k = 0; k < sub; ++k)
                s += a[r * sub + k] * b[k * sub + col];
            c[r * sub + col] = s;
        }
}

/**
 * true when the actual calibration at @p d carries no noise at all:
 * no stochastic error, no readout error, effectively infinite T1 and
 * T2, and no coherent miscalibration.
 */
bool
isNoiseless(const CalibrationTracker &tracker,
            const CalibrationTracker::Drift &d)
{
    const CalibrationSnapshot &base = tracker.base();
    for (std::size_t q = 0; q < base.qubits.size(); ++q) {
        const QubitCalibration qc = tracker.actualQubit(d, q);
        if (qc.gate1qError > 0.0 || qc.readout.p01 > 0.0 ||
            qc.readout.p10 > 0.0 || qc.t1Us < 1e7 || qc.t2Us < 1e7 ||
            qc.coherentRxRad != 0.0) {
            return false;
        }
    }
    for (const auto &[k, v] : base.cxError)
        if (CalibrationTracker::actualCxError(d, v) > 0.0)
            return false;
    for (const auto &[k, v] : base.cxPhaseRad)
        if (CalibrationTracker::actualCxPhase(d, v) != 0.0)
            return false;
    return true;
}

} // namespace

SimulatedQpu::SimulatedQpu(Device dev, uint64_t seed)
    : dev_(std::move(dev)),
      tracker_(dev_.baseCalibration, dev_.drift,
               Rng(seed).fork("drift:" + dev_.name)),
      queue_(dev_.queue)
{
}

SimulatedQpu::~SimulatedQpu() = default;

SimulatedQpu::SimulatedQpu(SimulatedQpu &&other) noexcept
    : dev_(std::move(other.dev_)),
      tracker_(std::move(other.tracker_)),
      queue_(std::move(other.queue_)),
      planCache_(std::move(other.planCache_)),
      ctxCache_(std::move(other.ctxCache_)),
      slotQubit_(std::move(other.slotQubit_)),
      slotPair_(std::move(other.slotPair_))
{
}

std::shared_ptr<const SimulatedQpu::ExecPlan>
SimulatedQpu::planFor(const TranspiledCircuit &tc)
{
    const uint64_t key = signatureHash(tc);
    {
        std::lock_guard<std::mutex> lk(planMu_);
        auto it = planCache_.find(key);
        if (it != planCache_.end() &&
            signatureMatches(tc, it->second->signature)) {
            return it->second;
        }
    }

    auto plan = std::make_shared<ExecPlan>();
    plan->numQubits = tc.compact.numQubits();
    plan->physOf = tc.compactToPhysical;
    forEachSignatureWord(
        tc, [&](uint64_t w) { plan->signature.push_back(w); });
    plan->noisy =
        fuseForSimulation(tc.compact, FusionMode::NoisePreserving);
    plan->ideal = fuseForSimulation(tc.compact, FusionMode::Full);
    plan->durationUs = circuitDurationUs(tc.compact, dev_.baseCalibration,
                                         tc.compactToPhysical);
    for (const GateOp &op : tc.compact.ops())
        if (op.type == GateType::MEASURE)
            plan->measured.push_back(op.qubits[0]);

    {
        // Register the plan's qubits and CX pairs for noise-context
        // coverage, reusing the slot of anything seen before.
        std::lock_guard<std::mutex> lk(ctxMu_);
        for (int p : plan->physOf) {
            auto it = std::find(slotQubit_.begin(), slotQubit_.end(), p);
            const std::size_t slot = it - slotQubit_.begin();
            if (it == slotQubit_.end())
                slotQubit_.push_back(p);
            plan->qubitSlot.push_back(static_cast<int>(slot));
            plan->needQubits = std::max(plan->needQubits, slot + 1);
        }
        const CalibrationSnapshot &base = tracker_.base();
        for (const FusedOp &op : plan->noisy.ops) {
            int slot = -1;
            if (op.primary == GateType::CX) {
                const auto [lo, hi] =
                    std::minmax(plan->physOf[op.q0], plan->physOf[op.q1]);
                auto it = std::find_if(
                    slotPair_.begin(), slotPair_.end(),
                    [&](const CxPair &c) { return c.lo == lo && c.hi == hi; });
                if (it != slotPair_.end()) {
                    slot = static_cast<int>(it - slotPair_.begin());
                } else {
                    auto err = base.cxError.find({lo, hi});
                    auto time = base.cxTimeNs.find({lo, hi});
                    if (err != base.cxError.end() &&
                        time != base.cxTimeNs.end()) {
                        slot = static_cast<int>(slotPair_.size());
                        slotPair_.push_back({lo, hi, err->second,
                                             time->second,
                                             base.cxPhaseFor(lo, hi)});
                    }
                }
                if (slot >= 0)
                    plan->needPairs = std::max(
                        plan->needPairs, static_cast<std::size_t>(slot) + 1);
            }
            plan->cxSlot.push_back(slot);
        }
    }

    std::lock_guard<std::mutex> lk(planMu_);
    // Possibly racing another builder, or evicting a hash collision;
    // either way the freshly built plan is a correct occupant, and
    // shared ownership keeps any in-flight reader's plan alive.
    planCache_[key] = plan;
    return plan;
}

bool
SimulatedQpu::planCacheContains(const TranspiledCircuit &tc) const
{
    const uint64_t key = signatureHash(tc);
    std::lock_guard<std::mutex> lk(planMu_);
    auto it = planCache_.find(key);
    return it != planCache_.end() &&
           signatureMatches(tc, it->second->signature);
}

std::shared_ptr<const SimulatedQpu::NoiseContext>
SimulatedQpu::noiseContextFor(double tH, const ExecPlan &plan)
{
    // Held across the build: a gradient batch lands all its circuit
    // executions on one fresh timestamp at once, and one thread
    // constructing while the rest wait beats every worker redundantly
    // re-deriving the same entries. The cache is keyed per timestamp
    // (bounded, oldest-time eviction) because the serving layer
    // interleaves shards of different jobs — different completion
    // times — on one backend; a single-entry cache would ping-pong and
    // rebuild on nearly every circuit execution.
    std::lock_guard<std::mutex> lk(ctxMu_);
    auto cached = ctxCache_.find(tH);
    if (cached != ctxCache_.end() && cached->second->covers(plan))
        return cached->second;

    // Every entry is a pure function of (tH, qubit or pair), so a
    // rebuild over more slots reproduces the old slots bit for bit.
    auto ctx = std::make_shared<NoiseContext>();
    ctx->timeH = tH;
    const CalibrationTracker::Drift drift = tracker_.driftAt(tH);
    ctx->noiseless = isNoiseless(tracker_, drift);
    if (!ctx->noiseless) {
        const double t1qUs = tracker_.base().gate1qTimeNs / 1000.0;
        ctx->qubits.resize(slotQubit_.size());
        for (std::size_t slot = 0; slot < slotQubit_.size(); ++slot) {
            const QubitCalibration qc =
                tracker_.actualQubit(drift, slotQubit_[slot]);
            NoiseContext::QubitNoise &qn = ctx->qubits[slot];
            thermalFactors(qc, t1qUs, qn.g1Gamma, qn.g1Coherence);
            if (qc.coherentRxRad != 0.0) {
                qn.hasRx = true;
                const double angle[1] = {qc.coherentRxRad};
                gateEntries(GateType::RX, angle, qn.rx.data());
            }
            // The channel physics stays in quantum/kraus.h: thermal
            // relaxation then depolarizing, as a 4x4 superoperator.
            thermalDepolarizingSuperop(qc.t1Us, qc.t2Us, t1qUs,
                                       qc.gate1qError, qn.n1.data());
            qn.n1Trivial = !qn.hasRx && qc.gate1qError <= 0.0 &&
                           qn.g1Gamma == 0.0 && qn.g1Coherence == 1.0;
            qn.readout = qc.readout;
        }
        ctx->cx.resize(slotPair_.size());
        for (std::size_t slot = 0; slot < slotPair_.size(); ++slot) {
            const CxPair &pair = slotPair_[slot];
            NoiseContext::CxNoise &cn = ctx->cx[slot];
            const double durUs = pair.timeNs / 1000.0;
            const double phase =
                CalibrationTracker::actualCxPhase(drift, pair.basePhase);
            if (phase != 0.0) {
                cn.hasZz = true;
                const double angle[1] = {phase};
                gateEntries(GateType::RZZ, angle, cn.zz);
            }
            cn.err = CalibrationTracker::actualCxError(drift, pair.baseErr);
            thermalFactors(tracker_.actualQubit(drift, pair.lo), durUs,
                           cn.gammaLo, cn.cohLo);
            thermalFactors(tracker_.actualQubit(drift, pair.hi), durUs,
                           cn.gammaHi, cn.cohHi);
            cn.trivial = cn.err <= 0.0 && cn.gammaLo == 0.0 &&
                         cn.cohLo == 1.0 && cn.gammaHi == 0.0 &&
                         cn.cohHi == 1.0;
        }
    }

    if (cached != ctxCache_.end()) {
        // Coverage miss: in-flight readers keep the old context alive.
        cached->second = ctx;
        return ctx;
    }
    auto inserted = ctxCache_.emplace(tH, std::move(ctx)).first;
    if (ctxCache_.size() > kMaxNoiseContexts) {
        auto victim = ctxCache_.begin(); // oldest virtual time
        if (victim == inserted)
            ++victim;
        ctxCache_.erase(victim);
    }
    return inserted->second;
}

CalibrationSnapshot
SimulatedQpu::reportedCalibration(double tH) const
{
    const CalibrationTracker::ReportedKey key = tracker_.reportedKey(tH);
    std::lock_guard<std::mutex> lk(reportedMu_);
    if (!hasReported_ || !(reportedKey_ == key)) {
        reportedCal_ = tracker_.reported(tH);
        reportedKey_ = key;
        hasReported_ = true;
    }
    return reportedCal_;
}

JobResult
SimulatedQpu::execute(const TranspiledCircuit &tc,
                      const std::vector<double> &params, int shots,
                      double atTimeH, Rng &rng, bool sampleCounts)
{
    const int n = tc.compact.numQubits();
    if (n < 1)
        panic("SimulatedQpu::execute: empty circuit");

    const std::shared_ptr<const ExecPlan> planPtr = planFor(tc);
    const ExecPlan &plan = *planPtr;
    const std::shared_ptr<const NoiseContext> ctxPtr =
        noiseContextFor(atTimeH, plan);
    const NoiseContext &nc = *ctxPtr;

    JobResult result;
    result.shots = shots;
    result.circuitDurationUs = plan.durationUs;

    if (nc.noiseless) {
        // Pure-state fast path for the ideal baseline: the Full-fusion
        // program, one kernel pass per fused operator.
        Statevector sv(n);
        applyFusedProgram(plan.ideal, params, sv);
        result.probabilities = sv.probabilities();
    } else {
        DensityMatrix dm(n);
        Complex scratch[16];
        for (std::size_t i = 0; i < plan.noisy.ops.size(); ++i) {
            const FusedOp &op = plan.noisy.ops[i];
            // Evaluate the fused unitary (symbolic ops rebuild their at
            // most 4x4 product; gate+noise sequences below fold it into
            // one channel superoperator instead of applying it here).
            const Complex *u = op.entries;
            const bool hasUnitary = op.termBegin != op.termEnd;
            if (hasUnitary && op.symbolic) {
                fusedEntries(plan.noisy, op, params, scratch);
                u = scratch;
            }

            switch (op.primary) {
              case GateType::RZ:
                // Virtual-only op: implemented in software, no noise.
                if (hasUnitary) {
                    if (op.twoQubit)
                        op.diagonal ? dm.applyDiag2(u, op.q0, op.q1)
                                    : dm.applyGate2(u, op.q0, op.q1);
                    else
                        op.diagonal ? dm.applyDiag1(u, op.q0)
                                    : dm.applyGate1(u, op.q0);
                }
                break;
              case GateType::ID: {
                // Explicit idle: thermal relaxation only, no unitary.
                const NoiseContext::QubitNoise &qn =
                    nc.qubits[plan.qubitSlot[op.q0]];
                dm.applyThermalRelaxation(op.q0, qn.g1Gamma,
                                          qn.g1Coherence);
                break;
              }
              case GateType::SX:
              case GateType::X: {
                // One pass for the whole sequence the unfused executor
                // used to spread over up to four: fused unitary,
                // coherent miscalibration, thermal relaxation and
                // depolarizing compose into a single 4x4 channel
                // superoperator N1 * (W (x) conj(W)).
                const NoiseContext::QubitNoise &qn =
                    nc.qubits[plan.qubitSlot[op.q0]];
                Complex w[4];
                if (qn.hasRx)
                    matMul(w, qn.rx.data(), u, 2);
                else
                    std::memcpy(w, u, sizeof(w));
                if (qn.n1Trivial) {
                    dm.applyGate1(w, op.q0);
                    break;
                }
                Complex m[16], s[16];
                for (int kp = 0; kp < 2; ++kp)
                    for (int bp = 0; bp < 2; ++bp)
                        for (int k = 0; k < 2; ++k)
                            for (int b = 0; b < 2; ++b)
                                m[(kp + 2 * bp) * 4 + (k + 2 * b)] =
                                    w[kp * 2 + k] *
                                    std::conj(w[bp * 2 + b]);
                matMul(s, qn.n1.data(), m, 4);
                dm.applyChannelSuperop1(s, op.q0);
                break;
              }
              case GateType::CX: {
                const int slot = plan.cxSlot[i];
                if (slot < 0)
                    panic("SimulatedQpu: CX on uncoupled qubits");
                const NoiseContext::CxNoise &cn = nc.cx[slot];
                if (cn.hasZz) {
                    // Residual ZZ phase accompanying the CX pulse
                    // (swap-symmetric diagonal, orientation-free):
                    // fold it into the fused unitary's entries.
                    Complex w2[16];
                    for (int r = 0; r < 4; ++r)
                        for (int c = 0; c < 4; ++c)
                            w2[r * 4 + c] = cn.zz[r] * u[r * 4 + c];
                    dm.applyGate2(w2, op.q0, op.q1);
                } else {
                    dm.applyGate2(u, op.q0, op.q1);
                }
                if (!cn.trivial) {
                    // One block-local pass for depolarizing + both
                    // endpoints' thermal relaxation.
                    const bool lo0 =
                        plan.physOf[op.q0] < plan.physOf[op.q1];
                    dm.applyDepolThermal2q(
                        cn.err, op.q0, lo0 ? cn.gammaLo : cn.gammaHi,
                        lo0 ? cn.cohLo : cn.cohHi, op.q1,
                        lo0 ? cn.gammaHi : cn.gammaLo,
                        lo0 ? cn.cohHi : cn.cohLo);
                }
                break;
              }
              default:
                panic("SimulatedQpu: non-basis gate '" +
                      gateName(op.primary) + "' reached the backend");
            }
        }
        result.probabilities = dm.probabilities();
        // SPAM: per-qubit readout confusion on the measured qubits.
        for (int q : plan.measured)
            applyReadoutError(result.probabilities, q,
                              nc.qubits[plan.qubitSlot[q]].readout);
    }

    if (sampleCounts && shots > 0)
        result.counts = rng.multinomial(result.probabilities,
                                        static_cast<uint64_t>(shots));
    return result;
}

Device
makeIdealDevice(int numQubits, const std::string &name)
{
    Device d;
    d.name = name;
    d.numQubits = numQubits;
    d.processor = "ideal-simulator";
    d.quantumVolume = 1 << numQubits;
    d.topologyName = "All-to-all";
    std::vector<std::pair<int, int>> edges;
    for (int a = 0; a < numQubits; ++a)
        for (int b = a + 1; b < numQubits; ++b)
            edges.push_back({a, b});
    d.coupling = CouplingMap(numQubits, std::move(edges));

    CalibrationSnapshot cal;
    for (int q = 0; q < numQubits; ++q) {
        QubitCalibration qc;
        qc.t1Us = 1e9;
        qc.t2Us = 1e9;
        qc.gate1qError = 0.0;
        qc.readout = {0.0, 0.0};
        cal.qubits.push_back(qc);
    }
    for (const auto &[a, b] : d.coupling.edges()) {
        cal.cxError[{a, b}] = 0.0;
        cal.cxTimeNs[{a, b}] = 300.0;
    }
    d.baseCalibration = cal;

    DriftParams drift;
    drift.errorDriftPerHour = 0.0;
    drift.coherenceDriftPerHour = 0.0;
    drift.calQualitySigma = 0.0;
    drift.latentSigma = 0.0;
    d.drift = drift;

    QueueParams q;
    q.baseWaitS = 0.5;
    q.waitLogSigma = 0.1;
    q.congestionAmplitude = 0.0;
    q.jobOverheadS = 0.5;
    d.queue = q;
    return d;
}

} // namespace eqc

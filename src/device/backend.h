/**
 * @file
 * Quantum backend interface and the simulated QPU.
 *
 * SimulatedQpu is the substitution for a physical IBMQ device: it runs
 * the transpiled circuit on the density-matrix simulator with Kraus
 * noise derived from the device's *actual* (drifted) calibration at the
 * submission time, applies per-qubit readout confusion, and samples
 * shots. Client nodes, however, only ever see the *reported* calibration
 * — exactly the information asymmetry real EQC deployments face.
 */

#ifndef EQC_DEVICE_BACKEND_H
#define EQC_DEVICE_BACKEND_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "device/device.h"
#include "transpile/transpiler.h"

namespace eqc {

/** Result of one batch execution on a backend. */
struct JobResult
{
    /**
     * Outcome distribution over the compact circuit's qubits with
     * readout error applied (exact, before shot sampling).
     */
    std::vector<double> probabilities;
    /** Sampled counts per outcome (empty when sampling was disabled). */
    std::vector<uint64_t> counts;
    /** Shots requested. */
    int shots = 0;
    /** Wall-clock duration of one circuit execution (microseconds). */
    double circuitDurationUs = 0.0;
};

/** Abstract execution target for transpiled circuits. */
class QuantumBackend
{
  public:
    virtual ~QuantumBackend() = default;

    /**
     * Execute a bound circuit.
     *
     * @param tc transpiled circuit (compact form is executed)
     * @param params values for the circuit's parameter table
     * @param shots number of measurement shots
     * @param atTimeH virtual submission time (selects the noise state)
     * @param rng stream for shot sampling
     * @param sampleCounts also draw multinomial counts (exact
     *        distribution is always returned)
     */
    virtual JobResult execute(const TranspiledCircuit &tc,
                              const std::vector<double> &params, int shots,
                              double atTimeH, Rng &rng,
                              bool sampleCounts) = 0;

    /** Device this backend fronts. */
    virtual const Device &device() const = 0;

    /**
     * Calibration the provider advertises at time t. Clients use it for
     * Eq. 2 weighting and readout-error mitigation; it lags the true
     * noise by up to one calibration cycle.
     */
    virtual CalibrationSnapshot reportedCalibration(double tH) const = 0;

    /**
     * true when this backend already holds a compiled execution plan
     * for @p tc — i.e. running it would skip plan compilation
     * entirely. Schedulers use the probe for cache-aware placement
     * (bias work toward members that are already warm for it); a
     * backend without a plan cache reports cold for everything.
     */
    virtual bool
    planCacheContains(const TranspiledCircuit &tc) const
    {
        (void)tc;
        return false;
    }
};

/** Density-matrix-simulated QPU with drifting calibration. */
class SimulatedQpu : public QuantumBackend
{
  public:
    /**
     * @param dev device description (catalog entry)
     * @param seed experiment seed; forked per device for determinism
     */
    SimulatedQpu(Device dev, uint64_t seed);

    ~SimulatedQpu() override;

    /**
     * Movable (the plan cache, noise contexts and their coverage slots
     * move along; the mutexes start fresh).
     */
    SimulatedQpu(SimulatedQpu &&other) noexcept;

    JobResult execute(const TranspiledCircuit &tc,
                      const std::vector<double> &params, int shots,
                      double atTimeH, Rng &rng,
                      bool sampleCounts) override;

    const Device &device() const override { return dev_; }

    /** Calibration the provider advertises at time t (no drift). */
    CalibrationSnapshot reportedCalibration(double tH) const override;

    /** Exact (signature-verified) plan-cache membership probe. */
    bool planCacheContains(const TranspiledCircuit &tc) const override;

    /** Access to the underlying drift timeline (for benches/tests). */
    const CalibrationTracker &tracker() const { return tracker_; }

    /** Queue model of this device. */
    const QueueModel &queue() const { return queue_; }

  private:
    /**
     * Precompiled execution plan for one transpiled circuit: two fused
     * programs (see sim/fusion.h) — a Full-fusion program driving the
     * noiseless statevector fast path and a NoisePreserving program
     * driving the density-matrix path, where per-gate calibration noise
     * attaches to each fused op's primary gate — plus the physical
     * qubit mapping and measured-qubit list. The per-job loop only
     * re-evaluates symbolic fused operators (at most 4x4 products) and
     * dispatches branch-light kernel calls, with no per-gate heap
     * allocation. Cached by circuit identity (structural hash, verified
     * exactly on every hit).
     */
    struct ExecPlan;

    /**
     * Everything execute() derives from the actual calibration at one
     * submission time, cached so the many circuits of a gradient batch
     * (all submitted at the same completion time) build it once: the
     * noiseless decision, and for each covered qubit its 1q noise
     * superoperator, thermal-relaxation factors for the 1q gate time,
     * coherent-miscalibration entries and readout error, and for each
     * covered coupled pair its CX noise. Covers only the qubits and
     * pairs that cached plans touch (see the coverage slots below).
     * (Circuit durations live on the ExecPlan — gate times never
     * drift.) Safe to share across concurrently executing jobs.
     */
    struct NoiseContext;

    /** Cached plan for @p tc, building it on first sight. */
    std::shared_ptr<const ExecPlan> planFor(const TranspiledCircuit &tc);

    /**
     * Cached noise context for time @p tH that covers @p plan. The
     * cache holds up to kMaxNoiseContexts timestamps (oldest virtual
     * time evicted) so concurrently executing jobs with different
     * completion times — the serving layer's shard fan-out — don't
     * thrash it. A cached context that lacks a slot @p plan needs is
     * rebuilt over every slot registered so far.
     */
    std::shared_ptr<const NoiseContext>
    noiseContextFor(double tH, const ExecPlan &plan);

    /**
     * A coupled pair a plan's CX runs on, with the base-calibration
     * entries its noise is derived from.
     */
    struct CxPair
    {
        int lo = 0, hi = 0; ///< physical ids, lo < hi
        double baseErr = 0.0;
        double timeNs = 0.0;
        double basePhase = 0.0;
    };

    Device dev_;
    CalibrationTracker tracker_;
    QueueModel queue_;

    mutable std::mutex planMu_;
    std::unordered_map<uint64_t, std::shared_ptr<const ExecPlan>>
        planCache_;

    static constexpr std::size_t kMaxNoiseContexts = 16;

    std::mutex ctxMu_;
    std::map<double, std::shared_ptr<const NoiseContext>> ctxCache_;
    /// @name Noise-context coverage (guarded by ctxMu_)
    /// Each physical qubit and coupled pair some plan uses gets a dense
    /// slot, in first-use order; slots never move. A context built
    /// over N qubit slots covers every plan whose qubits all sit below
    /// N, and likewise for pairs.
    /// @{
    std::vector<int> slotQubit_;   ///< qubit slot -> physical id
    std::vector<CxPair> slotPair_; ///< pair slot -> coupled pair
    /// @}

    mutable std::mutex reportedMu_;
    mutable bool hasReported_ = false;
    mutable CalibrationTracker::ReportedKey reportedKey_;
    mutable CalibrationSnapshot reportedCal_;
};

/**
 * A perfect device: all-to-all coupling, no noise, negligible queue.
 * Used for the paper's "Ideal Solution" baseline curves.
 */
Device makeIdealDevice(int numQubits, const std::string &name = "ideal");

} // namespace eqc

#endif // EQC_DEVICE_BACKEND_H

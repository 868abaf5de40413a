/**
 * @file
 * Time-dependent calibration drift.
 *
 * The paper's central systems observation is that QPU quality is
 * volatile: error rates grow as time-since-calibration increases,
 * recalibration resets (and slightly re-randomizes) them, and machines
 * occasionally fall into extended "deleterious running conditions"
 * (their Casablanca example). CalibrationTracker models all three:
 *
 *  - a calibration schedule (period + jitter) where each cycle draws a
 *    fresh quality factor;
 *  - within a cycle, *actual* error rates inflate linearly with hours
 *    since calibration while T1/T2 degrade — but the *reported*
 *    calibration stays frozen at its last-measured values, which is what
 *    makes stale calibrations mispredict (Fig. 4);
 *  - Poisson-arriving instability incidents that multiply error rates
 *    for hours at a time.
 *
 * The whole timeline is precomputed from a fork of the experiment seed,
 * so queries are pure functions of time and campaigns replay exactly.
 */

#ifndef EQC_DEVICE_DRIFT_H
#define EQC_DEVICE_DRIFT_H

#include <vector>

#include "common/rng.h"
#include "device/calibration.h"

namespace eqc {

/** Drift-model knobs (per device personality). */
struct DriftParams
{
    /** Mean hours between calibrations. */
    double calibrationPeriodH = 24.0;
    /** Uniform jitter applied to each calibration interval. */
    double calibrationJitterH = 3.0;
    /** Lognormal sigma of the per-calibration quality factor. */
    double calQualitySigma = 0.08;
    /** Linear error-rate inflation per hour since calibration. */
    double errorDriftPerHour = 0.01;
    /** Linear T1/T2 degradation per hour since calibration. */
    double coherenceDriftPerHour = 0.003;
    /**
     * Cadence at which the provider re-measures and republishes T1/T2
     * (IBMQ refreshes coherence data far more often than full gate
     * calibrations). Reported T1/T2 therefore tracks drift in steps of
     * this period, while reported error rates stay frozen until the
     * next full calibration.
     */
    double coherenceRefreshH = 1.0;
    /** Poisson rate of instability incidents (per hour). */
    double incidentRatePerHour = 0.0;
    /** Mean incident duration (exponential). */
    double incidentMeanDurationH = 4.0;
    /** Error multiplier while an incident is active. */
    double incidentSeverity = 4.0;
    /**
     * Lognormal sigma of the *latent* noise factor: crosstalk-like
     * device-specific noise that affects actual execution but never
     * shows up in the reported calibration (paper Sec. I/II-B). This is
     * what keeps the Eq. 2 model's Fig. 4 correlation strong but
     * imperfect. Redrawn at every calibration.
     */
    double latentSigma = 0.40;
    /** Precomputation horizon. */
    double horizonH = 2400.0;

    /**
     * Copy of these params with instability incidents dialed up to
     * @p ratePerHour / @p severity — the chaos harness's calibration
     * drift spike, flowing through the normal noise-context path
     * (Poisson incident timeline, Sec. II-B "deleterious running
     * conditions"). Values < 0 leave the respective knob unchanged.
     */
    DriftParams spiked(double ratePerHour, double severity) const;
};

/** Deterministic per-device calibration/drift timeline. */
class CalibrationTracker
{
  public:
    /**
     * @param base factory calibration of the device
     * @param params drift personality
     * @param rng generator forked for this device (consumed eagerly)
     */
    CalibrationTracker(CalibrationSnapshot base, DriftParams params,
                       Rng rng);

    /**
     * What the provider *advertises* at time t: the snapshot taken at
     * the most recent calibration, unaware of any drift since.
     */
    CalibrationSnapshot reported(double tH) const;

    /** The *true* noise at time t (drift and incidents applied). */
    CalibrationSnapshot actual(double tH) const;

    /**
     * The scale factors that turn the base calibration into actual(t).
     * actualQubit() and actualCx*() apply them to one entry at a time,
     * bit-identical to that entry of actual(t), so a consumer that
     * needs a few qubits derives only those instead of copying the
     * whole snapshot.
     */
    struct Drift
    {
        double quality = 1.0;      ///< the calibration cycle's factor
        double qualityT = 1.0;     ///< its T1/T2 scale, 1/sqrt(quality)
        double coherenceF = 1.0;   ///< T1/T2 decay since calibration
        double infl = 1.0;         ///< stochastic error inflation
        double coherentInfl = 1.0; ///< coherent miscalibration growth
    };
    Drift driftAt(double tH) const;

    /** actual(t).qubits[q] from driftAt(t). */
    QubitCalibration actualQubit(const Drift &d, std::size_t q) const;

    /** actual(t)'s CX error for a pair whose base error is @p base. */
    static double actualCxError(const Drift &d, double base);

    /** actual(t)'s CX ZZ phase for a pair whose base phase is @p base. */
    static double actualCxPhase(const Drift &d, double base);

    /**
     * What reported(t) depends on: the calibration cycle and the
     * coherence-refresh step within it. Equal keys give identical
     * reported snapshots, so a cache keyed on it hits for every time
     * inside one refresh step.
     */
    struct ReportedKey
    {
        std::size_t calIdx = 0;
        double refreshStep = 0.0;

        bool operator==(const ReportedKey &o) const
        {
            return calIdx == o.calIdx && refreshStep == o.refreshStep;
        }
    };
    ReportedKey reportedKey(double tH) const;

    /** The factory calibration the timeline scales. */
    const CalibrationSnapshot &base() const { return base_; }

    /** Time of the most recent calibration at or before t. */
    double lastCalibrationTime(double tH) const;

    /** Hours elapsed since the last calibration. */
    double hoursSinceCalibration(double tH) const;

    /** Multiplicative error inflation actual/reported at time t. */
    double errorInflation(double tH) const;

    /** true while an instability incident is active. */
    bool inIncident(double tH) const;

    const DriftParams &params() const { return params_; }

  private:
    CalibrationSnapshot base_;
    DriftParams params_;
    std::vector<double> calTimes_;
    std::vector<double> calQuality_;
    std::vector<double> latentFactor_;
    struct Incident
    {
        double startH;
        double endH;
        double severity;
    };
    std::vector<Incident> incidents_;

    std::size_t calIndex(double tH) const;
    CalibrationSnapshot snapshotAtCalibration(std::size_t idx) const;
};

} // namespace eqc

#endif // EQC_DEVICE_DRIFT_H

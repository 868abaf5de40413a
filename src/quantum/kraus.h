/**
 * @file
 * Quantum noise channels in Kraus form, plus the classical readout-error
 * model. These mirror the error taxonomy of the paper (Sec. II-B):
 * gate error as depolarization, coherence error as T1/T2 thermal
 * relaxation, and SPAM error as a per-qubit readout confusion matrix.
 */

#ifndef EQC_QUANTUM_KRAUS_H
#define EQC_QUANTUM_KRAUS_H

#include <vector>

#include "quantum/cmatrix.h"

namespace eqc {

/** A completely-positive trace-preserving map given by Kraus operators. */
struct KrausChannel
{
    /** Kraus operators; all square and of equal dimension. */
    std::vector<CMatrix> ops;

    /** Number of qubits the channel acts on (1 or 2). */
    int arity = 1;

    /** true when sum_k K^dagger K == I within @p tol. */
    bool isCPTP(double tol = 1e-9) const;

    /**
     * Sequential composition: first apply this channel, then @p after.
     * Both must have the same arity.
     */
    KrausChannel composeWith(const KrausChannel &after) const;

    /**
     * The channel's superoperator sum_k K_k (x) conj(K_k) as a
     * sub^2 x sub^2 row-major matrix over vectorized block indices
     * v = ketSub + sub * braSub: S[v'][v] = sum_k K_k[r', r] *
     * conj(K_k[s', s]). Built once per channel and cached; applying it
     * costs sub^2 flops per element regardless of the operator count,
     * which beats the Kraus-sum form for every multi-operator channel.
     * Invalidated by nothing: callers must not mutate `ops` after the
     * first apply. Not safe to race the first call from multiple
     * threads on a *shared* channel instance. The result lives in this
     * channel, so calling it on a temporary would dangle: that overload
     * is deleted.
     */
    const CVector &superopMatrix() const &;
    const CVector &superopMatrix() const && = delete;

  private:
    mutable CVector superop_;
};

/**
 * Single-qubit depolarizing channel: rho -> (1-l) rho + l I/2.
 * @param lambda depolarizing probability in [0, 4/3]
 */
KrausChannel depolarizing1q(double lambda);

/** Two-qubit depolarizing channel: rho -> (1-l) rho + l I/4. */
KrausChannel depolarizing2q(double lambda);

/** Amplitude damping with decay probability @p gamma. */
KrausChannel amplitudeDamping(double gamma);

/** Phase damping with dephasing probability @p lambda. */
KrausChannel phaseDamping(double lambda);

/**
 * Thermal relaxation over a gate of @p timeUs microseconds on a qubit
 * with relaxation times @p t1Us and @p t2Us (T2 clamped to 2*T1).
 * Modelled as amplitude damping followed by pure dephasing, matching the
 * standard decomposition used by Aer for T2 <= T1 regimes.
 */
KrausChannel thermalRelaxation(double t1Us, double t2Us, double timeUs);

/**
 * The 4x4 superoperator of thermalRelaxation(t1Us, t2Us, timeUs)
 * followed by depolarizing1q(lambda), written to @p out (16 entries,
 * row-major, the superopMatrix() layout). Bit-identical to
 * `thermalRelaxation(...).composeWith(depolarizing1q(...))
 * .superopMatrix()` for finite inputs: the same operator lists,
 * products and accumulation order, but on the stack, with no
 * allocation, and without the terms that have a zero factor (adding
 * one cannot change an entry). Panics, like thermalRelaxation, on a
 * non-positive T1 or T2.
 */
void thermalDepolarizingSuperop(double t1Us, double t2Us, double timeUs,
                                double lambda, Complex *out);

/**
 * Per-qubit readout confusion.
 *
 * p01 = P(measured 1 | true 0), p10 = P(measured 0 | true 1).
 */
struct ReadoutError
{
    double p01 = 0.0;
    double p10 = 0.0;
};

/**
 * Apply readout confusion of one qubit to a probability distribution
 * over 2^n outcomes (in place).
 */
void applyReadoutError(std::vector<double> &probs, int qubit,
                       const ReadoutError &err);

/**
 * Invert readout confusion of one qubit on a measured distribution (in
 * place): the standard linear measurement-error mitigation applied by
 * IBMQ tooling. Exact when @p err matches the true confusion; with a
 * stale calibration the residual mismatch survives — which is exactly
 * the imperfect-knowledge regime EQC's weighting is designed around.
 * May produce slightly negative quasi-probabilities; callers computing
 * expectations can consume them directly.
 */
void applyReadoutMitigation(std::vector<double> &probs, int qubit,
                            const ReadoutError &err);

} // namespace eqc

#endif // EQC_QUANTUM_KRAUS_H

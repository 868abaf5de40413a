#include "quantum/kraus.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.h"
#include "quantum/gates.h"

namespace eqc {

namespace {

/**
 * thermalRelaxation's channel parameters: the amplitude-damping
 * probability @p gamma and the pure-dephasing probability @p lambda.
 */
void
thermalParams(double t1Us, double t2Us, double timeUs, double &gamma,
              double &lambda)
{
    if (t1Us <= 0.0 || t2Us <= 0.0)
        panic("thermalRelaxation: T1/T2 must be positive");
    // Physically T2 <= 2*T1; clamp silently (calibration jitter can
    // produce slight violations).
    t2Us = std::min(t2Us, 2.0 * t1Us);
    gamma = 1.0 - std::exp(-timeUs / t1Us);
    // Pure dephasing rate: 1/Tphi = 1/T2 - 1/(2 T1). Phase damping with
    // parameter l scales coherences by sqrt(1-l), and amplitude damping
    // already contributes exp(-t/(2 T1)); choosing l = 1 - exp(-2 t/Tphi)
    // makes the combined coherence decay exactly exp(-t/T2).
    double invTphi = 1.0 / t2Us - 1.0 / (2.0 * t1Us);
    lambda = invTphi > 0.0 ? 1.0 - std::exp(-2.0 * timeUs * invTphi)
                           : 0.0;
}

/** Row-major 2x2 complex matrix on the stack. */
using Mat2 = std::array<Complex, 4>;

/** CMatrix::operator* on 2x2: the same i-k-j loop and zero skip. */
Mat2
mul2(const Mat2 &a, const Mat2 &b)
{
    Mat2 out{};
    for (int i = 0; i < 2; ++i)
        for (int k = 0; k < 2; ++k) {
            const Complex x = a[i * 2 + k];
            if (x == Complex(0.0, 0.0))
                continue;
            for (int j = 0; j < 2; ++j)
                out[i * 2 + j] += x * b[k * 2 + j];
        }
    return out;
}

/** CMatrix::operator*(Complex) on 2x2. */
Mat2
scale2(const Mat2 &a, Complex s)
{
    Mat2 out;
    for (int i = 0; i < 4; ++i)
        out[i] = a[i] * s;
    return out;
}

} // namespace

bool
KrausChannel::isCPTP(double tol) const
{
    if (ops.empty())
        return false;
    std::size_t dim = ops.front().rows();
    CMatrix acc(dim, dim);
    for (const CMatrix &k : ops)
        acc = acc + k.dagger() * k;
    return acc.distance(CMatrix::identity(dim)) <
           tol * static_cast<double>(dim);
}

KrausChannel
KrausChannel::composeWith(const KrausChannel &after) const
{
    if (after.arity != arity)
        panic("KrausChannel::composeWith: arity mismatch");
    KrausChannel out;
    out.arity = arity;
    for (const CMatrix &b : after.ops)
        for (const CMatrix &a : ops)
            out.ops.push_back(b * a);
    return out;
}

const CVector &
KrausChannel::superopMatrix() const &
{
    if (superop_.empty() && !ops.empty()) {
        const std::size_t sub = ops.front().rows();
        const std::size_t dim = sub * sub;
        superop_.assign(dim * dim, Complex(0, 0));
        for (const CMatrix &k : ops) {
            for (std::size_t rp = 0; rp < sub; ++rp)
                for (std::size_t sp = 0; sp < sub; ++sp)
                    for (std::size_t r = 0; r < sub; ++r)
                        for (std::size_t s = 0; s < sub; ++s) {
                            const std::size_t vp = rp + sub * sp;
                            const std::size_t v = r + sub * s;
                            superop_[vp * dim + v] +=
                                k(rp, r) * std::conj(k(sp, s));
                        }
        }
    }
    return superop_;
}

KrausChannel
depolarizing1q(double lambda)
{
    if (lambda < 0.0)
        lambda = 0.0;
    KrausChannel ch;
    ch.arity = 1;
    double pId = 1.0 - 3.0 * lambda / 4.0;
    double pP = lambda / 4.0;
    ch.ops.push_back(CMatrix::identity(2) * Complex(std::sqrt(pId), 0));
    if (pP > 0.0) {
        ch.ops.push_back(gateMatrix(GateType::X) *
                         Complex(std::sqrt(pP), 0));
        ch.ops.push_back(gateMatrix(GateType::Y) *
                         Complex(std::sqrt(pP), 0));
        ch.ops.push_back(gateMatrix(GateType::Z) *
                         Complex(std::sqrt(pP), 0));
    }
    return ch;
}

KrausChannel
depolarizing2q(double lambda)
{
    if (lambda < 0.0)
        lambda = 0.0;
    KrausChannel ch;
    ch.arity = 2;
    double pId = 1.0 - 15.0 * lambda / 16.0;
    double pP = lambda / 16.0;
    const CMatrix paulis[4] = {
        CMatrix::identity(2),
        gateMatrix(GateType::X),
        gateMatrix(GateType::Y),
        gateMatrix(GateType::Z),
    };
    for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) {
            double w = (a == 0 && b == 0) ? pId : pP;
            if (w <= 0.0)
                continue;
            // Sub-index bit 0 = first qubit: kron(second, first).
            ch.ops.push_back(paulis[b].kron(paulis[a]) *
                             Complex(std::sqrt(w), 0));
        }
    }
    return ch;
}

KrausChannel
amplitudeDamping(double gamma)
{
    gamma = std::clamp(gamma, 0.0, 1.0);
    KrausChannel ch;
    ch.arity = 1;
    ch.ops.push_back(
        CMatrix(2, 2, {1.0, 0.0, 0.0, std::sqrt(1.0 - gamma)}));
    if (gamma > 0.0)
        ch.ops.push_back(CMatrix(2, 2, {0.0, std::sqrt(gamma), 0.0, 0.0}));
    return ch;
}

KrausChannel
phaseDamping(double lambda)
{
    lambda = std::clamp(lambda, 0.0, 1.0);
    KrausChannel ch;
    ch.arity = 1;
    ch.ops.push_back(
        CMatrix(2, 2, {1.0, 0.0, 0.0, std::sqrt(1.0 - lambda)}));
    if (lambda > 0.0)
        ch.ops.push_back(
            CMatrix(2, 2, {0.0, 0.0, 0.0, std::sqrt(lambda)}));
    return ch;
}

KrausChannel
thermalRelaxation(double t1Us, double t2Us, double timeUs)
{
    double gamma, lambda;
    thermalParams(t1Us, t2Us, timeUs, gamma, lambda);
    return amplitudeDamping(gamma).composeWith(phaseDamping(lambda));
}

void
thermalDepolarizingSuperop(double t1Us, double t2Us, double timeUs,
                           double lambda, Complex *out)
{
    // Every step below mirrors one call of the Kraus path; the signed
    // zeros and rounding of each product must come out the same.
    static const std::array<Mat2, 3> kPaulis = [] {
        std::array<Mat2, 3> p;
        const GateType types[3] = {GateType::X, GateType::Y, GateType::Z};
        for (int i = 0; i < 3; ++i) {
            const CMatrix m = gateMatrix(types[i]);
            for (int e = 0; e < 4; ++e)
                p[i][e] = m(e / 2, e % 2);
        }
        return p;
    }();

    // thermalRelaxation: amplitudeDamping(gamma), then
    // phaseDamping(dephase), composed after-major.
    double gamma, dephase;
    thermalParams(t1Us, t2Us, timeUs, gamma, dephase);
    gamma = std::clamp(gamma, 0.0, 1.0);
    dephase = std::clamp(dephase, 0.0, 1.0);
    Mat2 amp[2] = {{1.0, 0.0, 0.0, std::sqrt(1.0 - gamma)}};
    const int nAmp = gamma > 0.0 ? 2 : 1;
    if (gamma > 0.0)
        amp[1] = {0.0, std::sqrt(gamma), 0.0, 0.0};
    Mat2 deph[2] = {{1.0, 0.0, 0.0, std::sqrt(1.0 - dephase)}};
    const int nDeph = dephase > 0.0 ? 2 : 1;
    if (dephase > 0.0)
        deph[1] = {0.0, 0.0, 0.0, std::sqrt(dephase)};
    Mat2 thermal[4];
    int nThermal = 0;
    for (int b = 0; b < nDeph; ++b)
        for (int a = 0; a < nAmp; ++a)
            thermal[nThermal++] = mul2(deph[b], amp[a]);

    // depolarizing1q(lambda).
    if (lambda < 0.0)
        lambda = 0.0;
    const double pId = 1.0 - 3.0 * lambda / 4.0;
    const double pP = lambda / 4.0;
    Mat2 depol[4] = {scale2({1.0, 0.0, 0.0, 1.0},
                            Complex(std::sqrt(pId), 0))};
    const int nDepol = pP > 0.0 ? 4 : 1;
    if (pP > 0.0)
        for (int i = 0; i < 3; ++i)
            depol[i + 1] = scale2(kPaulis[i], Complex(std::sqrt(pP), 0));

    // composeWith (after-major) and superopMatrix's accumulation. Each
    // operator adds one term to each entry, so only the order over
    // operators matters. With finite entries a zero factor gives a
    // signed-zero term, and adding one never changes an accumulator
    // that starts at +0 (it can never become -0), so skipping those
    // terms keeps every bit. The operators have at most one nonzero
    // per row, so at most 4 of the 16 terms remain.
    std::fill(out, out + 16, Complex(0, 0));
    for (int d = 0; d < nDepol; ++d)
        for (int t = 0; t < nThermal; ++t) {
            const Mat2 k = mul2(depol[d], thermal[t]);
            for (int rp = 0; rp < 2; ++rp)
                for (int r = 0; r < 2; ++r) {
                    const Complex a = k[rp * 2 + r];
                    if (a == Complex(0.0, 0.0))
                        continue;
                    for (int sp = 0; sp < 2; ++sp)
                        for (int s = 0; s < 2; ++s) {
                            const Complex b = k[sp * 2 + s];
                            if (b == Complex(0.0, 0.0))
                                continue;
                            out[(rp + 2 * sp) * 4 + (r + 2 * s)] +=
                                a * std::conj(b);
                        }
                }
        }
}

void
applyReadoutError(std::vector<double> &probs, int qubit,
                  const ReadoutError &err)
{
    const std::size_t dim = probs.size();
    const std::size_t step = std::size_t{1} << qubit;
    if (step >= dim)
        panic("applyReadoutError: qubit out of range");
    for (std::size_t base = 0; base < dim; base += 2 * step) {
        for (std::size_t off = 0; off < step; ++off) {
            std::size_t i0 = base + off;
            std::size_t i1 = i0 + step;
            double p0 = probs[i0], p1 = probs[i1];
            probs[i0] = (1.0 - err.p01) * p0 + err.p10 * p1;
            probs[i1] = err.p01 * p0 + (1.0 - err.p10) * p1;
        }
    }
}

void
applyReadoutMitigation(std::vector<double> &probs, int qubit,
                       const ReadoutError &err)
{
    const std::size_t dim = probs.size();
    const std::size_t step = std::size_t{1} << qubit;
    if (step >= dim)
        panic("applyReadoutMitigation: qubit out of range");
    double det = 1.0 - err.p01 - err.p10;
    if (det < 0.1)
        panic("applyReadoutMitigation: confusion matrix near-singular");
    // Inverse of [[1-p01, p10], [p01, 1-p10]].
    double a = (1.0 - err.p10) / det, b = -err.p10 / det;
    double c = -err.p01 / det, d = (1.0 - err.p01) / det;
    for (std::size_t base = 0; base < dim; base += 2 * step) {
        for (std::size_t off = 0; off < step; ++off) {
            std::size_t i0 = base + off;
            std::size_t i1 = i0 + step;
            double p0 = probs[i0], p1 = probs[i1];
            probs[i0] = a * p0 + b * p1;
            probs[i1] = c * p0 + d * p1;
        }
    }
}

} // namespace eqc

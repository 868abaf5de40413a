#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <type_traits>
#include <utility>

#include "quantum/kraus.h"

namespace eqc {
namespace {

TEST(Kraus, DepolarizingIsCPTP)
{
    for (double l : {0.0, 0.01, 0.2, 1.0})
        EXPECT_TRUE(depolarizing1q(l).isCPTP()) << l;
    for (double l : {0.0, 0.01, 0.2, 1.0})
        EXPECT_TRUE(depolarizing2q(l).isCPTP()) << l;
}

TEST(Kraus, DampingChannelsAreCPTP)
{
    for (double g : {0.0, 0.1, 0.5, 1.0}) {
        EXPECT_TRUE(amplitudeDamping(g).isCPTP()) << g;
        EXPECT_TRUE(phaseDamping(g).isCPTP()) << g;
    }
}

TEST(Kraus, ThermalRelaxationIsCPTP)
{
    EXPECT_TRUE(thermalRelaxation(100.0, 80.0, 0.1).isCPTP());
    EXPECT_TRUE(thermalRelaxation(50.0, 100.0, 1.0).isCPTP());
    // T2 > 2*T1 must be clamped, still CPTP.
    EXPECT_TRUE(thermalRelaxation(10.0, 50.0, 1.0).isCPTP());
}

TEST(Kraus, CompositionIsCPTP)
{
    KrausChannel c =
        amplitudeDamping(0.2).composeWith(phaseDamping(0.3));
    EXPECT_TRUE(c.isCPTP());
    EXPECT_EQ(c.arity, 1);
}

TEST(Kraus, ZeroNoiseIsIdentityChannel)
{
    KrausChannel c = depolarizing1q(0.0);
    ASSERT_EQ(c.ops.size(), 1u);
    EXPECT_LT(c.ops[0].distance(CMatrix::identity(2)), 1e-12);
}

/** true when superopMatrix() can be called on a @p T. */
template <typename T, typename = void>
struct CanTakeSuperop : std::false_type
{
};
template <typename T>
struct CanTakeSuperop<
    T, std::void_t<decltype(std::declval<T>().superopMatrix())>>
    : std::true_type
{
};

// The cached superoperator lives in the channel: reading it off a
// temporary would dangle, so only lvalues may ask for it.
static_assert(CanTakeSuperop<const KrausChannel &>::value,
              "superopMatrix() on an lvalue");
static_assert(!CanTakeSuperop<KrausChannel>::value,
              "superopMatrix() on a temporary must not compile");

/**
 * true when thermalDepolarizingSuperop matches the Kraus path's
 * superoperator bit for bit (signed zeros included).
 */
bool
stackSuperopMatchesKraus(double t1, double t2, double timeUs, double lambda)
{
    const KrausChannel ch = thermalRelaxation(t1, t2, timeUs)
                                .composeWith(depolarizing1q(lambda));
    const CVector &ref = ch.superopMatrix();
    Complex out[16];
    thermalDepolarizingSuperop(t1, t2, timeUs, lambda, out);
    return ref.size() == 16 &&
           std::memcmp(ref.data(), out, sizeof(out)) == 0;
}

TEST(Kraus, StackSuperopBitIdenticalToKrausPathRandom)
{
    std::mt19937_64 gen(20221);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    int mismatches = 0;
    for (int i = 0; i < 20000; ++i) {
        const double t1 = 5.0 + 300.0 * u(gen);
        // Up to 2.5*T1, so roughly a fifth of the cases clamp T2.
        const double t2 = 1.0 + 2.5 * t1 * u(gen);
        const double timeUs = (i % 7 == 0) ? 0.0 : 3.0 * u(gen);
        const double lambda = (i % 5 == 0) ? 0.0 : 0.2 * u(gen);
        if (!stackSuperopMatchesKraus(t1, t2, timeUs, lambda))
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Kraus, StackSuperopBitIdenticalToKrausPathEdges)
{
    // timeUs = 0: gamma = 0, only the first damping operators survive.
    EXPECT_TRUE(stackSuperopMatchesKraus(100.0, 80.0, 0.0, 0.01));
    // T2 = 2*T1: no pure dephasing.
    EXPECT_TRUE(stackSuperopMatchesKraus(100.0, 200.0, 0.035, 0.01));
    // Zero (and negative, floored to zero) depolarizing.
    EXPECT_TRUE(stackSuperopMatchesKraus(100.0, 80.0, 0.035, 0.0));
    EXPECT_TRUE(stackSuperopMatchesKraus(100.0, 80.0, 0.035, -0.1));
    // T2 > 2*T1: clamped to 2*T1.
    EXPECT_TRUE(stackSuperopMatchesKraus(50.0, 400.0, 0.3, 0.02));
    // Everything off at once, and full depolarizing.
    EXPECT_TRUE(stackSuperopMatchesKraus(100.0, 200.0, 0.0, 0.0));
    EXPECT_TRUE(stackSuperopMatchesKraus(30.0, 20.0, 1.0, 4.0 / 3.0));
    // Negative duration: gamma clamped to 0.
    EXPECT_TRUE(stackSuperopMatchesKraus(100.0, 80.0, -0.5, 0.01));
}

#ifndef EQC_MINIGTEST
TEST(KrausDeathTest, StackSuperopPanicsOnNonPositiveCoherence)
{
    Complex out[16];
    EXPECT_DEATH(thermalDepolarizingSuperop(0.0, 80.0, 0.035, 0.01, out),
                 "T1/T2 must be positive");
    EXPECT_DEATH(thermalDepolarizingSuperop(-5.0, 80.0, 0.035, 0.01, out),
                 "T1/T2 must be positive");
    EXPECT_DEATH(thermalDepolarizingSuperop(100.0, 0.0, 0.035, 0.01, out),
                 "T1/T2 must be positive");
}
#endif

TEST(Kraus, ReadoutErrorMixesDistribution)
{
    std::vector<double> p = {1.0, 0.0}; // 1 qubit, certainly |0>
    applyReadoutError(p, 0, {0.02, 0.05});
    EXPECT_NEAR(p[0], 0.98, 1e-12);
    EXPECT_NEAR(p[1], 0.02, 1e-12);

    std::vector<double> q = {0.0, 1.0};
    applyReadoutError(q, 0, {0.02, 0.05});
    EXPECT_NEAR(q[0], 0.05, 1e-12);
    EXPECT_NEAR(q[1], 0.95, 1e-12);
}

TEST(Kraus, ReadoutErrorPreservesTotalProbability)
{
    std::vector<double> p = {0.1, 0.2, 0.3, 0.4};
    applyReadoutError(p, 0, {0.03, 0.07});
    applyReadoutError(p, 1, {0.05, 0.01});
    double total = 0;
    for (double v : p)
        total += v;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Kraus, ReadoutErrorTargetsCorrectQubit)
{
    // State |01> (qubit0=1, qubit1=0); flip error only on qubit 1.
    std::vector<double> p = {0.0, 1.0, 0.0, 0.0};
    applyReadoutError(p, 1, {0.5, 0.0});
    EXPECT_NEAR(p[1], 0.5, 1e-12);
    EXPECT_NEAR(p[3], 0.5, 1e-12);
}

} // namespace
} // namespace eqc

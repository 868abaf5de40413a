#ifndef EQC_PERFBENCH_PROBES_H
#define EQC_PERFBENCH_PROBES_H

#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "device/device.h"
#include "perfbench.h"
#include "quantum/pauli.h"

namespace perfbench {

/** What a workload hands the probes: its own inputs. */
struct ProbeInput
{
    std::vector<eqc::Device> devices;
    /** (ansatz, observable) of each workload the run served. */
    std::vector<std::pair<eqc::QuantumCircuit, eqc::PauliSum>> circuits;
    /** One binding per entry of circuits. */
    std::vector<std::vector<double>> params;
    double atH = 0.0; ///< a model hour the run executed at
    int shots = 4096;
    uint64_t seed = 1;
};

/**
 * Times transpile(), fuseForSimulation() (both modes), fusedEntries(),
 * applyFusedProgram() on a DensityMatrix, SimulatedQpu::execute (warm,
 * at a fresh hour, on a fresh backend), one gradient job's
 * estimateBatch(), gradientParamShift() and Rng::fork(uint64_t), and
 * appends the per-call medians averaged over every (circuit, member).
 */
void probeLayers(const ProbeInput &in, Metrics &out);

} // namespace perfbench

#endif // EQC_PERFBENCH_PROBES_H

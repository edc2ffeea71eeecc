"""Per-instruction dense runs: the oracle the compiled propagators are checked against.

The simulators' ``run``/``run_batch`` fold each narrow circuit into one
cached propagator.  This module evolves the state one instruction (and one
repetition) at a time instead — :meth:`DensityMatrixSimulator.final_density_matrix`
for mixed states, :meth:`StatevectorSimulator._apply_gates` for pure ones —
and samples the terminal measurements with one ``multinomial`` draw, the
sampling contract every dense path shares.  Written for clarity rather than
speed.
"""

from __future__ import annotations

import numpy as np

from repro.quantum.simulator import (
    DensityMatrixSimulator,
    StatevectorSimulator,
    _format_clbits,
    renormalize_readout_probabilities,
)
from repro.quantum.states import PROBABILITY_DUST, Statevector


def _measure_map(circuit) -> dict[int, int]:
    measure_map: dict[int, int] = {}
    for instruction in circuit.instructions:
        if instruction.kind == "measure":
            for qubit, clbit in zip(instruction.qubits, instruction.clbits):
                measure_map[qubit] = clbit
    return measure_map


def _draw(probabilities, measure_map, num_clbits, shots, rng) -> dict[str, int]:
    """One multinomial over the measured qubits, keyed by clbit bitstring."""
    measured = sorted(measure_map)
    probabilities = np.where(probabilities < PROBABILITY_DUST, 0.0, probabilities)
    counts: dict[str, int] = {}
    for index, count in enumerate(rng.multinomial(shots, probabilities)):
        if count:
            outcome = format(index, f"0{len(measured)}b")
            values = {measure_map[q]: int(bit) for q, bit in zip(measured, outcome)}
            key = _format_clbits(values, num_clbits)
            counts[key] = counts.get(key, 0) + int(count)
    return counts


def reference_density_counts(circuit, noise_model, shots, rng) -> dict[str, int]:
    """Counts of *circuit* evolved instruction by instruction under *noise_model*."""
    final = DensityMatrixSimulator(noise_model=noise_model).final_density_matrix(circuit)
    measure_map = _measure_map(circuit)
    if not measure_map:
        return {}
    measured = sorted(measure_map)
    probabilities = final.probabilities(measured)
    if noise_model is not None and noise_model.has_readout_error():
        probabilities = renormalize_readout_probabilities(
            noise_model.apply_readout_errors(probabilities, measured)
        )
    return _draw(probabilities, measure_map, circuit.num_clbits, shots, rng)


def reference_statevector_counts(circuit, shots, rng) -> dict[str, int]:
    """Counts of a reset-free terminal-measurement *circuit*, gate by gate."""
    final = StatevectorSimulator._apply_gates(
        circuit, Statevector.zero_state(circuit.num_qubits)
    )
    measure_map = _measure_map(circuit)
    if not measure_map:
        return {}
    probabilities = final.probabilities(sorted(measure_map))
    probabilities = probabilities / probabilities.sum()
    return _draw(probabilities, measure_map, circuit.num_clbits, shots, rng)

"""Per-shot Pauli-trajectory sampler on :class:`CliffordTableau`.

The reference the vectorized trajectory sampler of
:class:`~repro.quantum.stabilizer.StabilizerSimulator` is checked and timed
against: one fresh tableau per shot, one Pauli realisation drawn per noise
application per shot, and readout flips drawn per measured bit — the plain
Monte-Carlo loop, written for clarity rather than speed.
"""

from __future__ import annotations

from repro.quantum.dispatch import pauli_mixture
from repro.quantum.simulator import _format_clbits
from repro.quantum.stabilizer import CliffordTableau


def _pauli_mixtures(circuit, noise_model) -> dict:
    """``id(error) -> (labels, probabilities)`` for every error on *circuit*."""
    mixtures = {}
    for instruction in circuit.instructions:
        if instruction.kind != "gate" or noise_model is None:
            continue
        for error in noise_model.errors_for(instruction.name, instruction.qubits):
            mixture = pauli_mixture(error.channel)
            mixtures[id(error)] = (tuple(mixture), tuple(mixture.values()))
    return mixtures


def _apply_sampled_errors(tableau, instruction, noise_model, mixtures, rng) -> None:
    for error in noise_model.errors_for(instruction.name, instruction.qubits):
        labels, probs = mixtures[id(error)]
        if error.num_qubits == len(instruction.qubits):
            applications = [list(instruction.qubits)]
        else:
            applications = [[qubit] for qubit in instruction.qubits]
        for qubits in applications:
            draw = rng.random()
            cumulative = 0.0
            chosen = labels[-1]
            for label, prob in zip(labels, probs):
                cumulative += prob
                if draw < cumulative:
                    chosen = label
                    break
            tableau.apply_pauli(chosen, qubits)


def reference_trajectory_counts(circuit, noise_model, shots, rng) -> dict[str, int]:
    """Counts of *shots* independent per-shot trajectories of *circuit*."""
    mixtures = _pauli_mixtures(circuit, noise_model)
    counts: dict[str, int] = {}
    for _ in range(shots):
        tableau = CliffordTableau(circuit.num_qubits)
        clbit_values: dict[int, int] = {}
        for instruction in circuit.instructions:
            if instruction.kind == "gate":
                noisy = noise_model is not None and noise_model.errors_for(
                    instruction.name, instruction.qubits
                )
                if noisy:
                    for _ in range(instruction.repetitions):
                        tableau.apply_gate(instruction.name, instruction.qubits)
                        _apply_sampled_errors(
                            tableau, instruction, noise_model, mixtures, rng
                        )
                else:
                    tableau.apply_gate(
                        instruction.name, instruction.qubits, instruction.repetitions
                    )
            elif instruction.kind == "reset":
                tableau.reset(instruction.qubits[0], rng)
            elif instruction.kind == "measure":
                for qubit, clbit in zip(instruction.qubits, instruction.clbits):
                    bit = tableau.measure(qubit, rng)
                    readout = (
                        None if noise_model is None else noise_model.readout_error_for(qubit)
                    )
                    if readout is not None:
                        flip = readout.prob_1_given_0 if bit == 0 else readout.prob_0_given_1
                        if rng.random() < flip:
                            bit ^= 1
                    clbit_values[clbit] = bit
        key = _format_clbits(clbit_values, circuit.num_clbits)
        counts[key] = counts.get(key, 0) + 1
    return counts

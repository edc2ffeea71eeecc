"""Unit tests for the CHP stabilizer tableau and its simulator."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.channels import depolarizing_channel
from repro.quantum.noise_model import NoiseModel, ReadoutError
from repro.quantum.simulator import DensityMatrixSimulator, StatevectorSimulator
from repro.quantum.stabilizer import (
    ANALYTIC_MAX_MEASURED_QUBITS,
    CliffordTableau,
    StabilizerSimulator,
)


def _bell_circuit():
    circuit = QuantumCircuit(2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure_all()
    return circuit


class TestCliffordTableau:
    def test_initial_state_stabilized_by_z(self):
        tableau = CliffordTableau(3)
        assert tableau.stabilizer_strings() == ["+ZII", "+IZI", "+IIZ"]

    def test_bell_preparation_stabilizers(self):
        tableau = CliffordTableau(2)
        tableau.h(0)
        tableau.cx(0, 1)
        assert tableau.stabilizer_strings() == ["+XX", "+ZZ"]

    def test_pauli_application_flips_signs(self):
        tableau = CliffordTableau(2)
        tableau.h(0)
        tableau.cx(0, 1)
        tableau.apply_pauli("Z", [0])  # |Φ+> -> |Φ->
        assert tableau.stabilizer_strings() == ["-XX", "+ZZ"]
        tableau.apply_pauli("X", [0])  # -> |Ψ->
        assert tableau.stabilizer_strings() == ["-XX", "-ZZ"]

    def test_deterministic_measurement(self):
        tableau = CliffordTableau(1)
        tableau.x_gate(0)
        rng = np.random.default_rng(0)
        assert tableau.measure(0, rng) == 1
        assert tableau.measure(0, rng) == 1  # repeated measurement is stable

    def test_random_measurement_collapses(self):
        rng = np.random.default_rng(5)
        tableau = CliffordTableau(1)
        tableau.h(0)
        outcome = tableau.measure(0, rng)
        assert outcome in (0, 1)
        # After collapse the qubit is in a computational state.
        assert tableau.measure(0, rng) == outcome

    def test_entangled_measurement_correlates(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            tableau = CliffordTableau(2)
            tableau.h(0)
            tableau.cx(0, 1)
            assert tableau.measure(0, rng) == tableau.measure(1, rng)

    def test_gate_order_reduction_matches_explicit_loop(self):
        explicit = CliffordTableau(1)
        for _ in range(5):
            explicit.s(0)
        reduced = CliffordTableau(1)
        reduced.apply_gate("s", [0], repetitions=5)
        assert np.array_equal(explicit.x, reduced.x)
        assert np.array_equal(explicit.z, reduced.z)
        assert np.array_equal(explicit.r, reduced.r)

    def test_s_squared_is_z(self):
        via_s = CliffordTableau(1)
        via_s.h(0)  # X stabilizer, so phases matter
        via_s.s(0)
        via_s.s(0)
        via_z = CliffordTableau(1)
        via_z.h(0)
        via_z.z_gate(0)
        assert via_s.stabilizer_strings() == via_z.stabilizer_strings()

    def test_reset_returns_qubit_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            tableau = CliffordTableau(2)
            tableau.h(0)
            tableau.cx(0, 1)
            tableau.reset(0, rng)
            assert tableau.measure(0, rng) == 0

    def test_non_clifford_gate_rejected(self):
        tableau = CliffordTableau(1)
        with pytest.raises(SimulationError):
            tableau.apply_gate("t", [0])

    def test_symbolic_measurement_allocates_symbols(self):
        tableau = CliffordTableau(2, track_symbols=True)
        tableau.h(0)
        tableau.cx(0, 1)
        constant0, mask0 = tableau.measure_symbolic(0)
        constant1, mask1 = tableau.measure_symbolic(1)
        # First measurement is random (one symbol); second is the same symbol.
        assert tableau.num_symbols == 1
        assert (constant0, mask0) == (0, 1)
        assert (constant1, mask1) == (0, 1)


class TestStabilizerSimulator:
    def test_counts_shape_and_shots(self):
        result = StabilizerSimulator(seed=0).run(_bell_circuit(), shots=100)
        assert sum(result.counts.values()) == 100
        assert set(result.counts) <= {"00", "11"}
        assert result.metadata["method"] == "stabilizer"
        assert result.metadata["stabilizer_mode"] == "analytic"

    def test_noiseless_counts_bit_identical_to_dense(self):
        circuit = _bell_circuit()
        dense = DensityMatrixSimulator(seed=123).run(circuit, shots=4096)
        stab = StabilizerSimulator(seed=123).run(circuit, shots=4096)
        sv = StatevectorSimulator(seed=123).run(circuit, shots=4096)
        assert stab.counts == dense.counts
        assert stab.counts == sv.counts

    def test_trajectory_mode_statistics(self):
        circuit = _bell_circuit()
        result = StabilizerSimulator(seed=7).run(
            circuit, shots=4000, method="trajectory"
        )
        assert result.metadata["stabilizer_mode"] == "trajectory"
        assert set(result.counts) <= {"00", "11"}
        assert abs(result.counts.get("00", 0) / 4000 - 0.5) < 0.05

    def test_partial_measurement_maps_to_clbits(self):
        circuit = QuantumCircuit(3, num_clbits=2)
        circuit.h(0)
        circuit.cx(0, 2)
        circuit.measure([2, 0], [1, 0])
        dense = DensityMatrixSimulator(seed=5).run(circuit, shots=512)
        stab = StabilizerSimulator(seed=5).run(circuit, shots=512)
        assert stab.counts == dense.counts

    def test_repetitions_equivalent_to_expanded_chain(self):
        rle = QuantumCircuit(2)
        rle.h(0)
        rle.cx(0, 1)
        rle.repeat("id", 0, 97)
        rle.cx(0, 1)
        rle.h(0)
        rle.measure_all()
        expanded = QuantumCircuit(2)
        expanded.h(0)
        expanded.cx(0, 1)
        for _ in range(97):
            expanded.id(0)
        expanded.cx(0, 1)
        expanded.h(0)
        expanded.measure_all()
        a = StabilizerSimulator(seed=31).run(rle, shots=256)
        b = StabilizerSimulator(seed=31).run(expanded, shots=256)
        assert a.counts == b.counts

    def test_pauli_noise_matches_dense_distribution(self):
        model = NoiseModel("pauli")
        model.add_all_qubit_error(depolarizing_channel(0.01), "id")
        model.add_readout_error(ReadoutError.symmetric(0.02))
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.repeat("id", 0, 150)
        circuit.cx(0, 1)
        circuit.h(0)
        circuit.measure_all()
        dense = DensityMatrixSimulator(noise_model=model, seed=17).run(
            circuit, shots=8192
        )
        stab = StabilizerSimulator(noise_model=model, seed=17).run(circuit, shots=8192)
        assert stab.counts == dense.counts

    def test_non_clifford_gate_raises(self):
        circuit = QuantumCircuit(1)
        circuit.t(0)
        circuit.measure_all()
        with pytest.raises(SimulationError, match="not Clifford"):
            StabilizerSimulator().run(circuit)

    def test_non_pauli_noise_raises(self):
        from repro.quantum.channels import amplitude_damping_channel

        model = NoiseModel("damping")
        model.add_all_qubit_error(amplitude_damping_channel(0.1), "id")
        circuit = QuantumCircuit(1)
        circuit.id(0)
        circuit.measure_all()
        with pytest.raises(SimulationError, match="not a Pauli channel"):
            StabilizerSimulator(noise_model=model).run(circuit)

    def test_initial_state_rejected(self):
        from repro.quantum.states import Statevector

        with pytest.raises(SimulationError, match=r"\|0\.\.\.0>"):
            StabilizerSimulator().run(
                _bell_circuit(), initial_state=Statevector.zero_state(2)
            )

    def test_negative_shots_rejected(self):
        with pytest.raises(SimulationError):
            StabilizerSimulator().run(_bell_circuit(), shots=-1)

    def test_unknown_method_rejected(self):
        with pytest.raises(SimulationError, match="unknown stabilizer method"):
            StabilizerSimulator().run(_bell_circuit(), method="exact")

    def test_no_measurement_returns_empty_counts(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        result = StabilizerSimulator(seed=0).run(circuit, shots=64)
        assert result.counts == {}
        assert result.shots == 0

    def test_run_batch_caches_structure(self):
        simulator = StabilizerSimulator(seed=0)
        batch = simulator.run_batch([_bell_circuit(), _bell_circuit()], shots=32)
        assert len(batch) == 2
        assert batch.metadata["method"] == "stabilizer"
        assert batch.metadata["cache_hits"] >= 1

    def test_many_qubit_register_beyond_dense_superop_limit(self):
        # 9 qubits is beyond MAX_SUPEROP_QUBITS; the tableau handles it
        # easily and the analytic envelope still applies.
        n = 9
        assert n <= ANALYTIC_MAX_MEASURED_QUBITS
        circuit = QuantumCircuit(n)
        circuit.h(0)
        for q in range(n - 1):
            circuit.cx(q, q + 1)
        circuit.measure_all()
        result = StabilizerSimulator(seed=2).run(circuit, shots=1024)
        assert set(result.counts) == {"0" * n, "1" * n}

    def test_swap_cz_cy_sdg_against_statevector(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.s(0)
        circuit.cz(0, 1)
        circuit.cy(1, 2)
        circuit.sdg(1)
        circuit.swap(0, 2)
        circuit.h(2)
        circuit.measure_all()
        dense = DensityMatrixSimulator(seed=77).run(circuit, shots=4096)
        stab = StabilizerSimulator(seed=77).run(circuit, shots=4096)
        assert stab.counts == dense.counts

    def test_final_tableau_requires_gate_only_circuit(self):
        with pytest.raises(SimulationError):
            StabilizerSimulator().final_tableau(_bell_circuit())
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        tableau = StabilizerSimulator().final_tableau(circuit)
        assert tableau.stabilizer_strings() == ["+XX", "+ZZ"]

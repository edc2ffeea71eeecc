"""Unit tests for the vectorized batched-tableau engine.

The cross-backend battery (``test_backend_conformance.py``) pins the
simulator-level contracts; this file exercises the engine itself:
bit-packed gate updates against the serial ``CliffordTableau`` on random
Clifford streams, batch measurement/reset semantics, masked Pauli frames,
the popcount kernel, and the ``StabilizerSimulator.run_batch`` surface.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.exceptions import SimulationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.stabilizer import (
    BatchedCliffordTableau,
    CliffordTableau,
    StabilizerSimulator,
    popcount,
)

ONE_QUBIT_GATES = ("h", "s", "sdg", "x", "y", "z")
TWO_QUBIT_GATES = ("cx", "cz", "cy", "swap")


def serial_stabilizer_strings(tableau: CliffordTableau) -> list[str]:
    """Signed stabilizer generators of a serial tableau (test-local helper)."""
    out = []
    for row in range(tableau.n, 2 * tableau.n):
        sign = "-" if tableau.r[row] else "+"
        chars = []
        for q in range(tableau.n):
            xb, zb = bool(tableau.x[row, q]), bool(tableau.z[row, q])
            chars.append("Y" if xb and zb else "X" if xb else "Z" if zb else "I")
        out.append(sign + "".join(chars))
    return out


def apply_random_stream(rng, batched, serial, steps=80, paulis=True):
    n = batched.n
    for _ in range(steps):
        if n >= 2 and rng.random() < 0.4:
            gate = TWO_QUBIT_GATES[int(rng.integers(len(TWO_QUBIT_GATES)))]
            qubits = [int(q) for q in rng.choice(n, size=2, replace=False)]
        else:
            gate = ONE_QUBIT_GATES[int(rng.integers(len(ONE_QUBIT_GATES)))]
            qubits = [int(rng.integers(n))]
        repetitions = int(rng.integers(1, 5))
        batched.apply_gate(gate, qubits, repetitions)
        serial.apply_gate(gate, qubits, repetitions)
        if paulis and rng.random() < 0.15:
            label = "".join("ixyz"[int(rng.integers(4))] for _ in qubits)
            batched.apply_pauli(label, qubits)
            serial.apply_pauli(label, qubits)


class TestPopcount:
    def test_matches_python_bit_count(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, size=64, dtype=np.uint64)
        words[0] = 0
        words[1] = np.uint64(2**64 - 1)
        expected = np.array([int(w).bit_count() for w in words], dtype=np.uint64)
        assert np.array_equal(popcount(words), expected)


class TestBatchedTableauGateParity:
    """Every packed-word gate update reproduces the serial bool-matrix one."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_random_clifford_stream_parity(self, seed, n):
        rng = np.random.default_rng(1000 * n + seed)
        batched = BatchedCliffordTableau(n, batch_size=2)
        serial = CliffordTableau(n)
        apply_random_stream(rng, batched, serial)
        assert batched.stabilizer_strings(0) == serial_stabilizer_strings(serial)
        # Shared symplectic: with no per-element randomness injected, both
        # batch elements are the same state.
        assert batched.stabilizer_strings(1) == batched.stabilizer_strings(0)

    def test_word_boundary_qubits(self):
        # Qubits 63/64/65 straddle the packed 64-bit word boundary.
        n = 66
        batched = BatchedCliffordTableau(n, batch_size=1)
        serial = CliffordTableau(n)
        for gate, qubits in [
            ("h", [63]), ("s", [64]), ("cx", [63, 64]), ("cz", [64, 65]),
            ("swap", [62, 65]), ("cy", [65, 63]), ("sdg", [64]), ("y", [63]),
        ]:
            batched.apply_gate(gate, qubits)
            serial.apply_gate(gate, qubits)
        assert batched.stabilizer_strings(0) == serial_stabilizer_strings(serial)

    def test_measurement_and_reset_parity_batch_of_one(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 7))
            batched = BatchedCliffordTableau(n, batch_size=1)
            serial = CliffordTableau(n)
            rng_batched = np.random.default_rng(seed + 4000)
            rng_serial = np.random.default_rng(seed + 4000)
            for _ in range(50):
                draw = rng.random()
                if draw < 0.55:
                    apply_random_stream(rng, batched, serial, steps=1, paulis=False)
                elif draw < 0.8:
                    q = int(rng.integers(n))
                    assert int(batched.measure(q, rng_batched)[0]) == serial.measure(
                        q, rng_serial
                    )
                else:
                    q = int(rng.integers(n))
                    batched.reset(q, rng_batched)
                    serial.reset(q, rng_serial)
            assert batched.stabilizer_strings(0) == serial_stabilizer_strings(serial)

    def test_deterministic_measurement_is_common_across_batch(self):
        batched = BatchedCliffordTableau(2, batch_size=5)
        batched.apply_gate("x", [0])
        outcomes = batched.measure(0, np.random.default_rng(0))
        assert outcomes.tolist() == [1, 1, 1, 1, 1]

    def test_masked_pauli_flips_only_selected_elements(self):
        batched = BatchedCliffordTableau(1, batch_size=4)
        mask = np.array([True, False, True, False])
        batched.apply_pauli_masked("x", [0], mask)
        outcomes = batched.measure(0, np.random.default_rng(0))
        assert outcomes.tolist() == [1, 0, 1, 0]

    def test_random_measurement_outcomes_vary_per_element(self):
        batched = BatchedCliffordTableau(1, batch_size=512)
        batched.apply_gate("h", [0])
        outcomes = batched.measure(0, np.random.default_rng(7))
        assert 100 < int(outcomes.sum()) < 412  # both values occur

    def test_invalid_construction(self):
        with pytest.raises(SimulationError):
            BatchedCliffordTableau(0, 1)
        with pytest.raises(SimulationError):
            BatchedCliffordTableau(1, 0)

    def test_non_clifford_gate_rejected(self):
        batched = BatchedCliffordTableau(1, 1)
        with pytest.raises(SimulationError, match="not Clifford"):
            batched.apply_gate("t", [0])

    def test_unknown_pauli_character_rejected(self):
        batched = BatchedCliffordTableau(1, 1)
        with pytest.raises(SimulationError, match="Pauli"):
            batched.apply_pauli("q", [0])


def bell_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(2, 2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure([0, 1], [0, 1])
    return circuit


def wide_ghz_circuit() -> QuantumCircuit:
    # 13 measured qubits: one past the inclusive analytic envelope.
    circuit = QuantumCircuit(13, 13, name="wide")
    circuit.h(0)
    for q in range(12):
        circuit.cx(q, q + 1)
    circuit.measure(range(13), range(13))
    return circuit


class TestRunBatchSurface:
    def test_batched_name_is_an_alias(self):
        from repro.quantum.tableau_batch import BatchedStabilizerSimulator

        assert BatchedStabilizerSimulator is StabilizerSimulator

    def test_run_is_a_batch_of_one(self):
        single = StabilizerSimulator(seed=3).run(bell_circuit(), shots=512)
        batch = StabilizerSimulator(seed=3).run_batch([bell_circuit()], shots=512)
        assert single.counts == batch.results[0].counts
        assert single.metadata == batch.results[0].metadata

    def test_batch_metadata_names_engine_and_mode(self):
        batch = StabilizerSimulator(seed=0).run_batch([bell_circuit()], shots=8)
        assert batch.metadata["method"] == "stabilizer"
        assert batch.metadata["mode"] == "analytic"
        assert batch.results[0].metadata["stabilizer_mode"] == "analytic"
        mixed = StabilizerSimulator(seed=0).run_batch(
            [bell_circuit(), wide_ghz_circuit()], shots=8
        )
        assert mixed.metadata["mode"] == "mixed"
        assert mixed.metadata["trajectories"] == 1

    @pytest.mark.parametrize(
        "method, mode", [("auto", "analytic"), ("trajectory", "trajectory")]
    )
    def test_run_batch_span_names_engine_and_mode(self, method, mode):
        with telemetry.capture(clock="ticks") as session:
            StabilizerSimulator(seed=0).run_batch(
                [bell_circuit()] * 3, shots=8, method=method
            )
        spans = [s for s in session.document.spans if s.name == "sim.run_batch"]
        assert len(spans) == 1
        assert spans[0].attributes["engine"] == "stabilizer"
        assert spans[0].attributes["mode"] == mode
        assert spans[0].attributes["circuits"] == 3

    def test_negative_shots_rejected(self):
        with pytest.raises(SimulationError, match="non-negative"):
            StabilizerSimulator().run_batch([bell_circuit()], shots=-1)

    def test_initial_state_rejected(self):
        with pytest.raises(SimulationError, match=r"\|0\.\.\.0>"):
            StabilizerSimulator().run_batch(
                [bell_circuit()], shots=8, initial_state=object()
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(SimulationError, match="unknown stabilizer method"):
            StabilizerSimulator().run_batch([bell_circuit()], method="exact")

    def test_non_clifford_circuit_rejected(self):
        circuit = QuantumCircuit(1, 1, name="t_gate")
        circuit.t(0)
        circuit.measure([0], [0])
        with pytest.raises(SimulationError, match="not Clifford"):
            StabilizerSimulator().run_batch([circuit], shots=8)

    def test_measurement_free_circuit_yields_empty_counts_without_rng(self):
        circuit = QuantumCircuit(2, name="no_measure")
        circuit.h(0)
        simulator = StabilizerSimulator(seed=1)
        result = simulator.run_batch([circuit, bell_circuit()], shots=64).results
        assert result[0].counts == {} and result[0].shots == 0
        # The empty circuit consumed no randomness: the Bell counts match a
        # fresh simulator sampling the Bell circuit alone.
        alone = StabilizerSimulator(seed=1).run(bell_circuit(), shots=64)
        assert result[1].counts == alone.counts

    def test_repeated_circuit_object_resolves_one_structure(self):
        circuit = bell_circuit()
        simulator = StabilizerSimulator(seed=2)
        batch = simulator.run_batch([circuit] * 16, shots=32)
        assert batch.metadata["structures"] == 1
        assert len(batch.results) == 16

    def test_plan_cache_reused_across_batches(self):
        simulator = StabilizerSimulator(seed=2)
        simulator.run_batch([bell_circuit()], shots=8)
        second = simulator.run_batch([bell_circuit()], shots=8)
        # Distinct circuit objects with equal structure hit the
        # structure-keyed plan cache.
        assert second.metadata["cache_hits"] == 1
        assert second.metadata["cache_misses"] == 0

    def test_out_of_envelope_samples_trajectories(self):
        # 13 measured qubits exceed the analytic envelope; auto sends the
        # circuit to the vectorized trajectory sampler, and run() is still
        # the batch of one bit for bit.
        circuit = wide_ghz_circuit()
        batch = StabilizerSimulator(seed=4).run_batch([circuit], shots=64)
        assert batch.metadata["trajectories"] == 1
        assert batch.results[0].metadata["stabilizer_mode"] == "trajectory"
        assert set(batch.results[0].counts) <= {"0" * 13, "1" * 13}
        single = StabilizerSimulator(seed=4).run(circuit, shots=64)
        assert batch.results[0].counts == single.counts

    def test_forced_analytic_raises_out_of_envelope(self):
        with pytest.raises(SimulationError, match="analytic envelope"):
            StabilizerSimulator().run_batch(
                [wide_ghz_circuit()], shots=8, method="analytic"
            )

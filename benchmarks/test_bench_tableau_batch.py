"""Bench the stabilizer engine's batch paths.

Two workloads:

* **Analytic session batches** — the paper-default session shape (one
  two-qubit message-transfer circuit per session, Pauli + readout noise)
  submitted as batches of 1/64/1024 sessions.  ``run_batch`` counts must
  stay bit-identical to a loop of ``run`` calls under the same seed, and the
  batch must amortize below 1 ms per session at batch ≥ 64.  Both share the
  structure-keyed plan cache, so the recorded speedup reflects per-call
  overhead, not the tableau engine.
* **Trajectory shot batches** — a reset-bearing circuit forced onto the
  trajectory path, where the batch axis is the shot count and whole-batch
  gate/noise updates on the packed tableau replace the per-shot Python loop
  of the test suite's reference sampler
  (``tests/quantum/reference_trajectories.py``).  This is the genuinely
  vectorized regime: the gate asserts a ≥ 5× win over that reference at
  1024 shots (measured ≈ 100×, so timing noise cannot flake it).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.experiments.emulation import build_message_transfer_circuit
from repro.quantum.channels import depolarizing_channel, pauli_channel
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise_model import NoiseModel, ReadoutError
from repro.quantum.stabilizer import StabilizerSimulator
from tests.quantum.reference_trajectories import reference_trajectory_counts

SHOTS = 1024
MESSAGES = ("00", "01", "10", "11")


def _pauli_model() -> NoiseModel:
    model = NoiseModel("bench_batch_pauli")
    model.add_all_qubit_error(depolarizing_channel(2.41e-4), "id")
    model.add_all_qubit_error(pauli_channel(0.004, 0.002, 0.006), "cx")
    model.add_readout_error(ReadoutError.symmetric(0.013))
    return model


def _session_circuits(count: int) -> list:
    # Fresh circuit objects per session, as the protocol runner submits them.
    return [
        build_message_transfer_circuit(MESSAGES[i % len(MESSAGES)], eta=30)
        for i in range(count)
    ]


def _reset_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, name="reset_reuse")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    circuit.reset(1)
    circuit.h(1)
    circuit.cx(1, 2)
    circuit.measure_all()
    return circuit


def _serial_counts(model, circuits, seed):
    simulator = StabilizerSimulator(noise_model=model)
    rng = np.random.default_rng(seed)
    return [simulator.run(circuit, shots=SHOTS, rng=rng).counts for circuit in circuits]


def _batched_counts(model, circuits, seed):
    simulator = StabilizerSimulator(noise_model=model)
    batch = simulator.run_batch(circuits, shots=SHOTS, rng=np.random.default_rng(seed))
    return [result.counts for result in batch.results]


def test_bench_batched_analytic_session_batches(benchmark, record):
    model = _pauli_model()
    seed = 9
    timings = {}
    for batch_size in (1, 64, 1024):
        circuits = _session_circuits(batch_size)

        start = time.perf_counter()
        serial = _serial_counts(model, circuits, seed)
        serial_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batched = _batched_counts(model, circuits, seed)
        batched_seconds = time.perf_counter() - start

        # One multinomial per circuit in submission order either way: equal
        # seeds mean bit-identical histograms at every batch size.
        assert batched == serial

        timings[batch_size] = (serial_seconds, batched_seconds)

    # Perf gate: the paper-default session amortizes under 1 ms once the
    # batch is large enough to amortize plan construction (measured ≈ 0.4 ms
    # on first resolution, ≈ 0.01 ms on plan reuse).
    for batch_size in (64, 1024):
        amortized_ms = timings[batch_size][1] * 1000.0 / batch_size
        assert amortized_ms < 1.0, (
            f"batched session amortization regressed: {amortized_ms:.3f} ms "
            f"per session at batch {batch_size}"
        )

    run_once(benchmark, _batched_counts, model, _session_circuits(1024), seed)
    record(
        shots=SHOTS,
        batch_sizes=[1, 64, 1024],
        counts_bit_identical=True,
        batch1024_serial_seconds=timings[1024][0],
        batch1024_batched_seconds=timings[1024][1],
        batched_session_amortized_seconds=timings[1024][1] / 1024,
        analytic_batch_speedup=timings[1024][0] / timings[1024][1],
    )


def test_bench_batched_trajectory_shot_batches(benchmark, record):
    model = _pauli_model()
    timings = {}
    for shots in (1, 64, 1024):
        start = time.perf_counter()
        serial_counts = reference_trajectory_counts(
            _reset_circuit(), model, shots, np.random.default_rng(5)
        )
        serial_seconds = time.perf_counter() - start

        batched = StabilizerSimulator(noise_model=model)
        start = time.perf_counter()
        batched_result = batched.run(
            _reset_circuit(),
            shots=shots,
            rng=np.random.default_rng(5),
            method="trajectory",
        )
        batched_seconds = time.perf_counter() - start

        assert sum(serial_counts.values()) == batched_result.shots == shots
        assert batched_result.metadata["stabilizer_mode"] == "trajectory"
        timings[shots] = (serial_seconds, batched_seconds)

    # Perf gate: the whole-batch tableau updates must beat the per-shot
    # reference loop by ≥ 5× at 1024 shots (measured ≈ 100×).
    speedup_1024 = timings[1024][0] / timings[1024][1]
    assert speedup_1024 >= 5.0, (
        f"batched trajectory speedup regressed to {speedup_1024:.1f}x "
        "at 1024 shots"
    )
    amortized_ms = timings[1024][1] * 1000.0 / 1024
    assert amortized_ms < 1.0, (
        f"batched trajectory shot amortization regressed: {amortized_ms:.4f} ms"
    )

    def _trajectory_run():
        return StabilizerSimulator(noise_model=model).run(
            _reset_circuit(),
            shots=1024,
            rng=np.random.default_rng(5),
            method="trajectory",
        )

    run_once(benchmark, _trajectory_run)
    record(
        shot_batches=[1, 64, 1024],
        shots1024_serial_seconds=timings[1024][0],
        shots1024_batched_seconds=timings[1024][1],
        trajectory_shot_amortized_seconds=timings[1024][1] / 1024,
        trajectory_batch_speedup=speedup_1024,
    )

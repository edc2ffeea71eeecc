"""Parity tests for the protocol's memoised measurement statistics.

Every session looks its CHSH branch statistics and Bell-outcome probability
vectors up in module-level tables keyed by pair content.  It must be
*bit-identical* to the per-pair oracle of
``tests/protocol/reference_measurement.py`` swapped into the runner — with
identical results and identical RNG consumption, for honest and attacked
sessions, cold and warm tables, threaded waves and networked deliveries
alike.
"""

import inspect
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from repro.api.config import ServiceConfig
from repro.attacks.intercept_resend import InterceptResendAttack
from repro.channel.quantum_channel import NoiselessChannel
from repro.protocol import chsh, runner
from repro.protocol.chsh import DISecurityCheck
from repro.network.sessions import SessionParameters
from repro.protocol.config import ProtocolConfig
from repro.protocol.identity import Identity
from repro.protocol.parties import Bob
from repro.protocol.runner import UADIQSDCProtocol
from repro.protocol.source import EntanglementSource
from repro.quantum import measurement
from repro.quantum.bell import BellState, bell_state
from repro.quantum.channels import depolarizing_channel
from repro.quantum.density import DensityMatrix

from tests.protocol.reference_measurement import (
    ReferenceBob,
    ReferenceCheck,
    reference_bell_measure,
)


def _reference(run):
    """Call *run* with the runner's Bob and security check measuring every pair afresh."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "Bob", ReferenceBob)
        patch.setattr(runner, "DISecurityCheck", ReferenceCheck)
        return run()


def _clear_tables():
    measurement._BELL_CACHE.clear()
    chsh._BRANCH_CACHE.clear()


def _session_fingerprint(result):
    return (
        result.success,
        result.abort_reason,
        result.delivered_message,
        None if result.chsh_round1 is None else result.chsh_round1.value,
        None if result.chsh_round2 is None else result.chsh_round2.value,
        result.bob_authentication_error,
        result.alice_authentication_error,
        result.check_bit_error_rate,
        result.message_bit_error_rate,
    )


class TestFastPathParity:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_honest_session_bit_identical(self, seed):
        message = "0110" * 8
        config = ProtocolConfig.default(len(message), seed=seed)
        fast = UADIQSDCProtocol(config).run(message)
        reference = _reference(lambda: UADIQSDCProtocol(config).run(message))
        assert _session_fingerprint(fast) == _session_fingerprint(reference)

    def test_attacked_session_bit_identical(self):
        message = "10" * 8
        config = ProtocolConfig.default(len(message), seed=11)
        fast = UADIQSDCProtocol(config, attack=InterceptResendAttack()).run(message)
        reference = _reference(
            lambda: UADIQSDCProtocol(config, attack=InterceptResendAttack()).run(message)
        )
        assert _session_fingerprint(fast) == _session_fingerprint(reference)

    def test_noisy_channel_session_bit_identical(self):
        message = "1100" * 4
        config = ProtocolConfig.default(len(message), seed=3, eta=50)
        fast = UADIQSDCProtocol(config).run(message)
        reference = _reference(lambda: UADIQSDCProtocol(config).run(message))
        assert _session_fingerprint(fast) == _session_fingerprint(reference)

    def test_reference_seam_bypasses_tables(self):
        message = "01010101"
        config = ProtocolConfig.default(len(message), seed=0)
        _clear_tables()
        _reference(lambda: UADIQSDCProtocol(config).run(message))
        assert not chsh._BRANCH_CACHE and not measurement._BELL_CACHE
        UADIQSDCProtocol(config).run(message)
        assert chsh._BRANCH_CACHE and measurement._BELL_CACHE


class TestNoSessionEngineKnob:
    """No configuration layer selects the simulator a protocol session uses."""

    @pytest.mark.parametrize(
        "config_class",
        [ProtocolConfig, ServiceConfig, SessionParameters],
        ids=["protocol", "service", "session"],
    )
    def test_config_has_no_simulator_backend(self, config_class):
        assert "simulator_backend" not in {field.name for field in fields(config_class)}
        assert not hasattr(config_class, "with_simulator_backend")

    def test_service_description_names_no_engine(self):
        assert "simulator_backend" not in ServiceConfig.paper_default(seed=0).describe()

    def test_parties_and_check_carry_no_cache_fields(self):
        assert {field.name for field in fields(Bob)} == {
            "identity",
            "peer_identity",
            "rng",
        }
        assert {field.name for field in fields(DISecurityCheck)} == {"settings"}

    def test_protocol_takes_no_caches(self):
        parameters = inspect.signature(UADIQSDCProtocol.__init__).parameters
        assert list(parameters) == ["self", "config", "attack"]

    @pytest.mark.parametrize("name", ["SessionCaches", "run_session_batch"])
    def test_runner_has_no_session_batch_plumbing(self, name):
        assert not hasattr(runner, name)


class TestDISecurityCheckMemoization:
    def _pairs(self, count=64):
        noisy = depolarizing_channel(0.05).apply(
            bell_state(BellState.PHI_PLUS).density_matrix(), [0]
        )
        clean = bell_state(BellState.PHI_PLUS).density_matrix()
        return [clean if index % 2 else noisy for index in range(count)]

    def test_memoized_estimate_bit_identical_to_reference(self):
        pairs = self._pairs()
        memoized = DISecurityCheck().estimate(pairs, rng=np.random.default_rng(42))
        reference = ReferenceCheck().estimate(
            pairs, rng=np.random.default_rng(42)
        )
        assert memoized.value == reference.value
        assert memoized.correlations == reference.correlations
        assert memoized.counts == reference.counts

    def test_rng_consumption_identical(self):
        pairs = self._pairs(32)
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        DISecurityCheck().estimate(pairs, rng=rng_a)
        ReferenceCheck().estimate(pairs, rng=rng_b)
        assert rng_a.integers(0, 2**31) == rng_b.integers(0, 2**31)


class TestBobMemoization:
    def _bob(self, bob_class, seed=4):
        identity = Identity.random(2, owner="bob", rng=np.random.default_rng(0))
        peer = Identity.random(2, owner="alice", rng=np.random.default_rng(1))
        return bob_class(identity=identity, peer_identity=peer, rng=seed)

    def test_bell_measure_bit_identical(self):
        pairs = {
            index: bell_state(BellState.PHI_PLUS).density_matrix()
            for index in range(48)
        }
        fast = self._bob(Bob).bell_measure(pairs, tuple(pairs))
        reference = self._bob(ReferenceBob).bell_measure(pairs, tuple(pairs))
        assert fast == reference

    def test_noisy_bell_measure_bit_identical(self):
        noisy = depolarizing_channel(0.2).apply(
            bell_state(BellState.PSI_MINUS).density_matrix(), [0]
        )
        pairs = {index: noisy for index in range(64)}
        fast = self._bob(Bob, seed=8).bell_measure(pairs, tuple(pairs))
        reference = self._bob(ReferenceBob, seed=8).bell_measure(pairs, tuple(pairs))
        assert fast == reference
        assert len(set(fast.values())) > 1


class TestNetworkedDeliveryParity:
    def _networked_config(self, seed=5):
        from repro.api.config import ServiceConfig
        from repro.network.topology import line_topology

        return (
            ServiceConfig.networked(line_topology(3), seed=seed)
            .with_channel(NoiselessChannel())
            .with_executor("serial")
        )

    @pytest.mark.parametrize("seed", [0, 5])
    def test_networked_delivery_bit_identical_to_reference(self, seed):
        from repro.api.service import MessagingService

        config = self._networked_config(seed)
        fast = MessagingService(config).send("1010", kind="bits")
        reference = _reference(
            lambda: MessagingService(config).send("1010", kind="bits")
        )
        assert fast.summary() == reference.summary()


class TestDeviceNoiseModelMemo:
    def test_memo_invalidates_on_calibration_swap(self):
        from repro.device.calibration import (
            DeviceCalibration,
            GateCalibration,
            QubitCalibration,
        )
        from repro.device.device_model import DeviceModel

        def calibration(readout):
            return DeviceCalibration(
                qubit_defaults=QubitCalibration(
                    t1=2e-4, t2=1e-4, readout_error=readout
                ),
                gates={"id": GateCalibration("id", 1e-4, 6e-8, num_qubits=1)},
            )

        device = DeviceModel("swap_test", 2, calibration=calibration(0.01))
        first = device.noise_model()
        device.calibration = calibration(0.3)  # fresh object, same version=0
        second = device.noise_model()
        assert second is not first
        assert second.readout_error_for(0).prob_1_given_0 == pytest.approx(0.3)

    def test_memo_invalidates_on_version_bump(self):
        from repro.device.calibration import GateCalibration
        from repro.device.device_model import DeviceModel

        device = DeviceModel.ibm_brisbane()
        first = device.noise_model()
        assert device.noise_model() is first  # stable while unchanged
        device.calibration.add_gate(GateCalibration("id", 0.5, 6e-8, num_qubits=1))
        assert device.noise_model() is not first


class TestSourceEmissionSharing:
    def test_emit_many_shares_one_deterministic_state(self):
        source = EntanglementSource()
        pairs = source.emit_many(10)
        assert len(pairs) == 10
        assert source.emitted == 10
        assert all(pair is pairs[0] for pair in pairs)

    def test_override_keeps_per_index_emission(self):
        calls = []

        def override(index):
            calls.append(index)
            return bell_state(BellState.PHI_PLUS).density_matrix()

        source = EntanglementSource(override=override)
        pairs = source.emit_many(4)
        assert calls == [0, 1, 2, 3]
        assert len({id(pair) for pair in pairs}) == 4

    def test_noisy_source_emission_matches_single_emit(self):
        noisy = EntanglementSource(preparation_noise=depolarizing_channel(0.1))
        shared = noisy.emit_many(3)[0]
        single = EntanglementSource(
            preparation_noise=depolarizing_channel(0.1)
        ).emit(0)
        assert np.array_equal(shared.matrix, single.matrix)


class TestMeasurementTables:
    """The module-level tables are invisible in results and stay bounded."""

    @staticmethod
    def _distinct_pairs(count):
        phi_plus = bell_state(BellState.PHI_PLUS).density_matrix().matrix
        return [
            DensityMatrix(
                (1 - p) * phi_plus + p * np.eye(4) / 4, validate=False
            )
            for p in np.linspace(0.0, 0.5, count)
        ]

    def test_cold_tables_match_warm_tables(self):
        message = "0110" * 4
        configs = [
            ProtocolConfig.default(len(message), seed=seed, eta=eta)
            for seed, eta in [(0, 10), (1, 10), (7, 50), (2024, 10)]
        ]
        cold = []
        for config in configs:
            _clear_tables()
            cold.append(UADIQSDCProtocol(config).run(message))
        warm = [UADIQSDCProtocol(config).run(message) for config in configs]
        assert [_session_fingerprint(r) for r in cold] == [
            _session_fingerprint(r) for r in warm
        ]

    def test_thread_batch_wave_matches_local(self):
        from repro.api.service import MessagingService

        config = ServiceConfig.paper_default(seed=3).with_fragment_bits(8)
        _clear_tables()
        threaded = MessagingService(
            config.with_backend("batch").with_executor("thread", max_workers=2)
        ).send("wave", kind="text")
        _clear_tables()
        local = MessagingService(config).send("wave", kind="text")
        assert [f.summary() for f in threaded.fragments] == [
            f.summary() for f in local.fragments
        ]

    def test_bell_table_stays_bounded(self):
        _clear_tables()
        rng = np.random.default_rng(0)
        for pair in self._distinct_pairs(measurement._BELL_CACHE_MAX + 5):
            measurement.bell_measurement(pair, [0, 1], rng=rng)
        assert 0 < len(measurement._BELL_CACHE) <= measurement._BELL_CACHE_MAX

    def test_branch_table_stays_bounded(self):
        _clear_tables()
        DISecurityCheck().estimate(
            self._distinct_pairs(chsh._BRANCH_CACHE_MAX + 5),
            rng=np.random.default_rng(0),
        )
        assert 0 < len(chsh._BRANCH_CACHE) <= chsh._BRANCH_CACHE_MAX

    def test_concurrent_misses_keep_bounds_and_results(self):
        class PeakDict(dict):
            """A table that remembers the most entries it ever held."""

            peak = 0

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.peak = max(self.peak, len(self))

        pairs = self._distinct_pairs(chsh._BRANCH_CACHE_MAX + 100)
        positions = tuple(range(len(pairs)))
        seeds = range(4)  # more threads than cores
        expected = {
            seed: (
                reference_bell_measure(
                    dict(enumerate(pairs)), positions, np.random.default_rng(seed)
                ),
                ReferenceCheck().estimate(pairs, rng=np.random.default_rng(seed)).value,
            )
            for seed in seeds
        }
        results = {}

        def work(seed):
            rng = np.random.default_rng(seed)
            bell = {
                position: measurement.bell_measurement(
                    pairs[position], [0, 1], rng=rng
                ).bell_state
                for position in positions
            }
            estimate = DISecurityCheck().estimate(pairs, rng=np.random.default_rng(seed))
            results[seed] = (bell, estimate.value)

        bell_table, branch_table = PeakDict(), PeakDict()
        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measurement, "_BELL_CACHE", bell_table)
            patch.setattr(chsh, "_BRANCH_CACHE", branch_table)
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected
        assert bell_table.peak <= measurement._BELL_CACHE_MAX
        assert branch_table.peak <= chsh._BRANCH_CACHE_MAX

    def test_cached_bell_vector_is_read_only(self):
        _clear_tables()
        pair = bell_state(BellState.PHI_PLUS).density_matrix()
        measurement.bell_measurement(pair, [0, 1], rng=np.random.default_rng(0))
        (vector,) = measurement._BELL_CACHE.values()
        with pytest.raises(ValueError):
            vector[0] = 0.5

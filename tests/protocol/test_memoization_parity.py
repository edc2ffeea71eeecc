"""Parity tests for the protocol's memoised pair-state engines.

Every session runs the fast path (memoised CHSH branch statistics, memoised
Bell-measurement distributions, shared source emissions).  It must be
*bit-identical* to the unmemoised reference — ``Bob(memoize=False)`` and
``DISecurityCheck(memoize=False)`` swapped into the runner — with identical
results and identical RNG consumption, for honest and attacked sessions,
fused batches and networked deliveries alike.
"""

from dataclasses import dataclass, fields

import numpy as np
import pytest

from repro.api.config import ServiceConfig
from repro.attacks.intercept_resend import InterceptResendAttack
from repro.channel.quantum_channel import NoiselessChannel
from repro.protocol import runner
from repro.protocol.chsh import DISecurityCheck
from repro.network.sessions import SessionParameters
from repro.protocol.config import ProtocolConfig
from repro.protocol.identity import Identity
from repro.protocol.parties import Bob
from repro.protocol.runner import UADIQSDCProtocol
from repro.protocol.source import EntanglementSource
from repro.quantum.bell import BellState, bell_state
from repro.quantum.channels import depolarizing_channel


@dataclass
class _ReferenceBob(Bob):
    memoize: bool = False


@dataclass
class _ReferenceCheck(DISecurityCheck):
    memoize: bool = False


def _reference(run):
    """Call *run* with the runner's Bob and security check unmemoised."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "Bob", _ReferenceBob)
        patch.setattr(runner, "DISecurityCheck", _ReferenceCheck)
        return run()


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

    def test_reference_seam_disables_memoisation(self):
        from repro.protocol.runner import SessionCaches

        message = "01010101"
        config = ProtocolConfig.default(len(message), seed=0)
        caches = SessionCaches()
        _reference(lambda: UADIQSDCProtocol(config, caches=caches).run(message))
        assert not caches.chsh_branches and not caches.bell_probabilities
        UADIQSDCProtocol(config, caches=caches).run(message)
        assert caches.chsh_branches and caches.bell_probabilities


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


class TestDISecurityCheckMemoization:
    def _pairs(self, count=64):
        noisy = depolarizing_channel(0.05).apply(
            bell_state(BellState.PHI_PLUS).density_matrix(), [0]
        )
        clean = bell_state(BellState.PHI_PLUS).density_matrix()
        return [clean if index % 2 else noisy for index in range(count)]

    def test_memoized_estimate_bit_identical_to_reference(self):
        pairs = self._pairs()
        memoized = DISecurityCheck(memoize=True).estimate(
            pairs, rng=np.random.default_rng(42)
        )
        reference = DISecurityCheck(memoize=False).estimate(
            pairs, rng=np.random.default_rng(42)
        )
        assert memoized.value == reference.value
        assert memoized.correlations == reference.correlations
        assert memoized.counts == reference.counts

    def test_rng_consumption_identical(self):
        pairs = self._pairs(32)
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        DISecurityCheck(memoize=True).estimate(pairs, rng=rng_a)
        DISecurityCheck(memoize=False).estimate(pairs, rng=rng_b)
        assert rng_a.integers(0, 2**31) == rng_b.integers(0, 2**31)


class TestBobMemoization:
    def _bob(self, memoize, seed=4):
        identity = Identity.random(2, owner="bob", rng=np.random.default_rng(0))
        peer = Identity.random(2, owner="alice", rng=np.random.default_rng(1))
        return Bob(identity=identity, peer_identity=peer, rng=seed, memoize=memoize)

    def test_bell_measure_bit_identical(self):
        pairs = {
            index: bell_state(BellState.PHI_PLUS).density_matrix()
            for index in range(48)
        }
        fast = self._bob(True).bell_measure(pairs, tuple(pairs))
        reference = self._bob(False).bell_measure(pairs, tuple(pairs))
        assert fast == reference


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


class TestSessionBatchFusion:
    """Cross-session cache sharing must be invisible in the results.

    ``run_session_batch`` threads one :class:`SessionCaches` through every
    fast-path session; the caches memoize only configuration-keyed pure
    measurement statistics, so fused sessions are bit-identical to solo runs.
    """

    def _sessions(self, seeds, message="0110" * 4):
        return [
            (ProtocolConfig.default(len(message), seed=seed), None, message)
            for seed in seeds
        ]

    def test_fused_batch_bit_identical_to_solo_sessions(self):
        from repro.protocol.runner import run_session_batch

        seeds = [0, 1, 7, 11, 2024]
        message = "0110" * 4
        solo = [
            UADIQSDCProtocol(config).run(msg)
            for config, _attack, msg in self._sessions(seeds, message)
        ]
        fused = run_session_batch(self._sessions(seeds, message))
        reference = _reference(
            lambda: run_session_batch(self._sessions(seeds, message))
        )
        assert [_session_fingerprint(r) for r in fused] == [
            _session_fingerprint(r) for r in solo
        ]
        assert [_session_fingerprint(r) for r in fused] == [
            _session_fingerprint(r) for r in reference
        ]

    def test_fused_attacked_batch_bit_identical(self):
        from repro.protocol.runner import run_session_batch

        message = "10" * 8
        config = ProtocolConfig.default(len(message), seed=11)
        solo = UADIQSDCProtocol(config, attack=InterceptResendAttack()).run(message)
        fused = run_session_batch(
            [(config, InterceptResendAttack(), message)] * 3
        )
        for result in fused:
            assert _session_fingerprint(result) == _session_fingerprint(solo)

    def test_shared_caches_populate_across_sessions(self):
        from repro.protocol.runner import SessionCaches, run_session_batch

        caches = SessionCaches()
        run_session_batch(self._sessions([0, 1]), caches=caches)
        assert caches.chsh_branches  # CHSH branch statistics were shared
        assert caches.bell_probabilities  # Bob's Bell distributions were shared

"""Quantum channel models.

The paper emulates the quantum channel between Alice and Bob as a sequence of
``η`` identity gates on the hardware: an ideal channel is ``U_C = I`` while a
real channel is a noisy approximation whose error grows with ``η`` (each
identity gate takes 60 ns and fails with probability ``2.41e-4`` on
``ibm_brisbane``).  :class:`IdentityChainChannel` reproduces exactly that
model and is what the Fig. 2 / Fig. 3 experiments sweep.

All channels expose two complementary interfaces:

* :meth:`QuantumChannel.extend_circuit` — append the channel's gate sequence
  to a :class:`~repro.quantum.circuit.QuantumCircuit` (this is how the paper's
  emulation composes Alice's and Bob's operations into one circuit);
* :meth:`QuantumChannel.transmit` — apply the channel's noise map directly to
  a :class:`~repro.quantum.density.DensityMatrix`, which the protocol runner
  uses when it simulates pairs analytically instead of via full circuits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.device.calibration import (
    IBM_BRISBANE_ID_DURATION,
    IBM_BRISBANE_ID_ERROR,
    IBM_BRISBANE_T1,
    IBM_BRISBANE_T2,
)
from repro.exceptions import ChannelError
from repro.quantum.channels import (
    KrausChannel,
    depolarizing_channel,
    identity_channel,
    thermal_relaxation_channel,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density import DensityMatrix

__all__ = [
    "QuantumChannel",
    "NoiselessChannel",
    "DepolarizingChannel",
    "IdentityChainChannel",
    "FiberLossChannel",
]


class QuantumChannel:
    """Interface for one-qubit transmission channels between Alice and Bob."""

    #: Human-readable channel name.
    name: str = "quantum_channel"

    def single_use_channel(self) -> KrausChannel:
        """The CPTP map applied to one qubit per traversal of the channel."""
        raise NotImplementedError

    def duration(self) -> float:
        """Wall-clock time (seconds) one qubit spends in the channel."""
        return 0.0

    def extend_circuit(self, circuit: QuantumCircuit, qubit: int) -> QuantumCircuit:
        """Append the channel's gate realisation for *qubit* to *circuit*.

        The default realisation is a no-op; :class:`IdentityChainChannel`
        overrides it with the η identity gates of the paper's emulation.
        """
        return circuit

    def transmit(self, state: DensityMatrix, qubit: int) -> DensityMatrix:
        """Send one qubit of *state* through the channel and return the new state."""
        return self.single_use_channel().apply(state, [qubit])

    def pauli_probabilities(self) -> "dict[str, float] | None":
        """The channel's Pauli probability mixture, or ``None`` if it has none.

        This is the static-eligibility hook the dispatch layer
        (:mod:`repro.quantum.dispatch`) consults when a protocol session
        forces the stabilizer backend: a channel whose single-use map is a
        stochastic Pauli channel keeps Bell pairs Bell-diagonal, the
        structure the fast paths exploit.
        """
        from repro.quantum.dispatch import pauli_mixture

        return pauli_mixture(self.single_use_channel())

    def is_pauli(self) -> bool:
        """True if the single-use map is a stochastic Pauli channel."""
        return self.pauli_probabilities() is not None

    def transmit_batch(
        self, states: Sequence[DensityMatrix], qubit: int
    ) -> list[DensityMatrix]:
        """Send qubit *qubit* of every state through the channel in one pass.

        The channel map is applied once per *distinct* input state (keyed by
        the raw matrix bytes) and the result is shared between identical
        inputs.  Protocol sessions transmit hundreds of pairs that are all
        the same ``|Φ+⟩`` emission, so the hot loop collapses to a single
        Kraus application; the output order matches the input order.
        Sharing is safe because :class:`~repro.quantum.density.DensityMatrix`
        operations never mutate in place — **and** because :meth:`transmit`
        is deterministic (a CPTP map application), which every channel in
        this module is.  A subclass whose ``transmit`` samples a random
        error realization per use MUST override ``transmit_batch`` too
        (e.g. with a per-pair loop), or all identical pairs of a session
        would silently share one realization instead of drawing
        independently.

        Parameters
        ----------
        states:
            Input states, one per transmitted pair.
        qubit:
            The qubit index (within each state) that traverses the channel.

        Returns
        -------
        list of DensityMatrix
            Transmitted states, aligned with *states*.
        """
        transformed: dict[bytes, DensityMatrix] = {}
        output: list[DensityMatrix] = []
        for state in states:
            key = state.matrix.tobytes()
            result = transformed.get(key)
            if result is None:
                result = self.transmit(state, qubit)
                transformed[key] = result
            output.append(result)
        return output

    def survival_probability(self) -> float:
        """Probability that a traversal applies no error at all (analytic estimate)."""
        return 1.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NoiselessChannel(QuantumChannel):
    """An ideal channel ``U_C = I`` (the paper's closed-system assumption)."""

    name = "noiseless"

    def single_use_channel(self) -> KrausChannel:
        return identity_channel()


@dataclass
class DepolarizingChannel(QuantumChannel):
    """A single-use depolarizing channel — the canonical *Pauli* link model.

    ``ρ → (1 − p) ρ + p/3 (XρX + YρY + ZρZ)``.  Unlike
    :class:`IdentityChainChannel` (whose thermal-relaxation component is not
    a Pauli map), this channel is a stochastic Pauli mixture
    (:func:`repro.quantum.dispatch.channel_is_pauli` holds), so pair states
    sent over it stay Bell-diagonal.  The security-analysis experiment
    (``fig_security``) uses it as its default link.

    Parameters
    ----------
    probability:
        Total depolarizing probability ``p`` per channel use, in [0, 1].
    """

    probability: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ChannelError("depolarizing probability must lie in [0, 1]")
        self.name = f"depolarizing(p={self.probability:g})"

    def single_use_channel(self) -> KrausChannel:
        return depolarizing_channel(self.probability)


@dataclass
class IdentityChainChannel(QuantumChannel):
    """The paper's η-identity-gate channel.

    Parameters
    ----------
    eta:
        Number of identity gates the transmitted qubit traverses
        (``10 <= η <= 700`` in the paper's Fig. 3 sweep).
    gate_error:
        Error probability per identity gate; defaults to the ``ibm_brisbane``
        median ``2.41e-4`` quoted in the paper.
    gate_duration:
        Duration of one identity gate; defaults to 60 ns.
    t1, t2:
        Relaxation times used for the decoherence accumulated while the qubit
        idles in the channel; default to the ``ibm_brisbane`` medians.
    include_thermal_relaxation:
        If True (default), the per-gate map is depolarizing + thermal
        relaxation; if False it is depolarizing only (ablation knob).
    """

    eta: int = 10
    gate_error: float = IBM_BRISBANE_ID_ERROR
    gate_duration: float = IBM_BRISBANE_ID_DURATION
    t1: float = IBM_BRISBANE_T1
    t2: float = IBM_BRISBANE_T2
    include_thermal_relaxation: bool = True

    def __post_init__(self):
        if self.eta < 0:
            raise ChannelError(f"eta must be non-negative, got {self.eta}")
        if not 0.0 <= self.gate_error <= 1.0:
            raise ChannelError("gate_error must lie in [0, 1]")
        if self.gate_duration < 0:
            raise ChannelError("gate_duration must be non-negative")
        self.name = f"identity_chain(eta={self.eta})"

    # -- analytic quantities ---------------------------------------------------------
    def duration(self) -> float:
        """Total channel duration ``η * gate_duration`` (0.6 µs at η=10)."""
        return self.eta * self.gate_duration

    def survival_probability(self) -> float:
        """``(1 - p_e)**η`` — the paper's probability that the channel stays error-free."""
        return (1.0 - self.gate_error) ** self.eta

    def per_gate_channel(self) -> KrausChannel:
        """The CPTP map applied per identity gate."""
        channel = depolarizing_channel(self.gate_error)
        if self.include_thermal_relaxation and self.gate_duration > 0:
            channel = channel.compose(
                thermal_relaxation_channel(self.t1, self.t2, self.gate_duration)
            )
        return channel

    def single_use_channel(self) -> KrausChannel:
        """The full-traversal map: the per-gate map composed η times.

        The composed Kraus set grows multiplicatively; for large η the
        depolarizing + relaxation composition is collapsed analytically by
        composing the η-step depolarizing probability and the η-step
        relaxation instead of multiplying Kraus operators, which keeps the
        operator count constant.
        """
        if self.eta == 0:
            return identity_channel()
        # Effective depolarizing probability after eta applications:
        # each step keeps the Bloch vector with factor (1 - p), so the
        # composite shrink factor is (1 - p)**eta.
        effective_p = 1.0 - (1.0 - self.gate_error) ** self.eta
        channel = depolarizing_channel(effective_p)
        if self.include_thermal_relaxation and self.gate_duration > 0:
            channel = channel.compose(
                thermal_relaxation_channel(self.t1, self.t2, self.duration())
            )
        channel.name = self.name
        return channel

    # -- circuit realisation ------------------------------------------------------------
    def extend_circuit(self, circuit: QuantumCircuit, qubit: int) -> QuantumCircuit:
        """Append η identity gates on *qubit*, exactly as the paper's emulation does.

        The chain is stored as one run-length-encoded instruction
        (``repetitions=η``); simulation semantics are identical to η separate
        ``id`` gates, but construction and structure hashing are O(1).
        """
        return circuit.repeat("id", qubit, self.eta)

    def with_eta(self, eta: int) -> "IdentityChainChannel":
        """A copy of this channel with a different η (used by the Fig. 3 sweep)."""
        return IdentityChainChannel(
            eta=eta,
            gate_error=self.gate_error,
            gate_duration=self.gate_duration,
            t1=self.t1,
            t2=self.t2,
            include_thermal_relaxation=self.include_thermal_relaxation,
        )


@dataclass
class FiberLossChannel(QuantumChannel):
    """A fibre channel parameterised by length, for km-scale extensions.

    The paper sweeps channel length in identity-gate counts; deployments
    would sweep kilometres of fibre instead.  Photon loss at ``attenuation_db_per_km``
    is modelled as replacement of the qubit by the maximally mixed state with
    the loss probability (an erasure conservatively mapped onto a fully
    depolarizing event, since the protocol discards inconclusive detections),
    plus optional dephasing per kilometre.
    """

    length_km: float = 1.0
    attenuation_db_per_km: float = 0.2
    dephasing_per_km: float = 0.0
    speed_km_per_s: float = 2.0e5

    def __post_init__(self):
        if self.length_km < 0:
            raise ChannelError("length_km must be non-negative")
        if self.attenuation_db_per_km < 0:
            raise ChannelError("attenuation must be non-negative")
        if not 0.0 <= self.dephasing_per_km <= 1.0:
            raise ChannelError("dephasing_per_km must lie in [0, 1]")
        self.name = f"fiber(length={self.length_km}km)"

    def transmission_probability(self) -> float:
        """Probability that the photon is not lost: ``10**(-attenuation*L/10)``."""
        return 10.0 ** (-self.attenuation_db_per_km * self.length_km / 10.0)

    def survival_probability(self) -> float:
        return self.transmission_probability()

    def duration(self) -> float:
        """Propagation delay of the fibre."""
        if self.speed_km_per_s <= 0:
            raise ChannelError("speed_km_per_s must be positive")
        return self.length_km / self.speed_km_per_s

    def single_use_channel(self) -> KrausChannel:
        loss_probability = 1.0 - self.transmission_probability()
        channel = depolarizing_channel(loss_probability)
        if self.dephasing_per_km > 0 and self.length_km > 0:
            total_dephasing = 1.0 - (1.0 - self.dephasing_per_km) ** self.length_km
            from repro.quantum.channels import phase_damping_channel

            channel = channel.compose(phase_damping_channel(total_dephasing))
        channel.name = self.name
        return channel

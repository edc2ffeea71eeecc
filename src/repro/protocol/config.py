"""Protocol configuration.

:class:`ProtocolConfig` gathers every tunable of a UA-DI-QSDC session: message
and check-bit sizes, identity length ``l``, DI-check sample size ``d``, the
CHSH settings and abort thresholds, the quantum channel model, the
entanglement source and the RNG seed.  :meth:`ProtocolConfig.default` builds a
configuration with the paper's parameters for a given message length.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.channel.quantum_channel import IdentityChainChannel, QuantumChannel
from repro.exceptions import ConfigurationError
from repro.protocol.chsh import CHSHSettings
from repro.quantum.channels import KrausChannel
from repro.protocol.identity import Identity
from repro.protocol.source import EntanglementSource
from repro.utils.rng import as_rng

__all__ = ["ProtocolConfig"]


@dataclass
class ProtocolConfig:
    """All parameters of one protocol session.

    Attributes
    ----------
    message_length:
        ``n`` — number of secret message bits Alice wants to deliver.
    num_check_bits:
        ``c`` — random check bits scattered into the message; ``n + c`` must
        be even.
    identity_pairs:
        ``l`` — EPR pairs per identity; each identity is ``2l`` bits and an
        impersonator survives verification with probability ``(1/4)**l``.
    check_pairs_per_round:
        ``d`` — pairs measured per DI security-check round.
    chsh_settings:
        Measurement angles, phase convention and abort threshold for both
        security-check rounds.
    authentication_tolerance:
        Maximum fraction of identity pairs whose Bell outcome may disagree
        with the expected one before the verifying party aborts.
    check_bit_tolerance:
        Maximum fraction of check bits that may disagree before the message
        is considered corrupted.
    channel:
        The quantum channel Alice's qubits traverse when sent to Bob
        (default: the paper's η=10 identity-gate channel).
    distribution_channel:
        Optional channel applied to Bob's half during the initial
        entanglement sharing (None = ideal distribution, the paper's setting).
    source:
        The entanglement source (default: ideal ``|Φ+⟩`` source).
    memory_decoherence:
        Optional single-qubit Kraus channel applied (via
        :class:`~repro.channel.memory.QuantumMemory`) to Alice's stored halves
        once per unit of hold time between the first DI security check and
        the encoding step.  ``None`` models the paper's ideal memory.
    memory_hold_time:
        How long (in memory time units) Alice holds her halves before
        encoding.  With an ideal memory this has no physical effect; with
        ``memory_decoherence`` set, the channel is applied
        ``int(memory_hold_time)`` times per stored qubit.  Network schedulers
        map session queueing delay onto this knob.
    alice_identity, bob_identity:
        Pre-shared identities; generated from the seed when omitted.
    seed:
        Master seed making the whole session reproducible.
    raise_on_abort:
        If True the runner raises :class:`~repro.exceptions.ProtocolAbort`
        instead of returning an aborted result.
    scenario:
        Optional declarative adversary
        (:class:`~repro.attacks.scenarios.AttackScenario`,
        :class:`~repro.attacks.scenarios.ScenarioSchedule`, a serialised
        dict of either, or the name of a registered preset).  When set and
        no explicit ``attack`` object is handed to
        :class:`~repro.protocol.runner.UADIQSDCProtocol`, the runner builds
        the attack from this spec with seed-derived randomness, so the same
        scenario spec reproduces identical adversarial behaviour across the
        protocol, service and network layers.  ``None`` (default) runs an
        honest session.
    """

    message_length: int
    num_check_bits: int
    identity_pairs: int = 8
    check_pairs_per_round: int = 256
    chsh_settings: CHSHSettings = field(default_factory=CHSHSettings)
    authentication_tolerance: float = 0.25
    check_bit_tolerance: float = 0.15
    channel: QuantumChannel = field(default_factory=lambda: IdentityChainChannel(eta=10))
    distribution_channel: QuantumChannel | None = None
    source: EntanglementSource = field(default_factory=EntanglementSource)
    memory_decoherence: KrausChannel | None = None
    memory_hold_time: float = 0.0
    alice_identity: Identity | None = None
    bob_identity: Identity | None = None
    seed: int | None = None
    raise_on_abort: bool = False
    scenario: object | None = None

    # -- constructors ------------------------------------------------------------
    @staticmethod
    def default_check_bits(message_length: int, num_check_bits: int | None = None) -> int:
        """The check-bit count for a message of *message_length* bits.

        With ``num_check_bits=None`` the paper's rule applies: roughly a
        quarter of the message length, at least 2.  Either way the count is
        adjusted upward by one if needed so ``n + c`` is even (2 bits per
        EPR pair).  This is the single implementation of the rule; the
        service layer (:meth:`repro.api.config.ServiceConfig.protocol_config`)
        and the network layer
        (:meth:`repro.network.sessions.SessionParameters.check_bits_for`)
        delegate here so per-fragment/per-hop sessions stay bit-identical to
        direct :meth:`default` configurations.
        """
        check_bits = (
            max(2, message_length // 4) if num_check_bits is None else num_check_bits
        )
        if (message_length + check_bits) % 2 != 0:
            check_bits += 1
        return check_bits

    @classmethod
    def default(
        cls,
        message_length: int,
        seed: int | None = None,
        eta: int = 10,
        identity_pairs: int = 8,
        check_pairs_per_round: int = 256,
    ) -> "ProtocolConfig":
        """A ready-to-run configuration with the paper's parameters.

        The number of check bits is chosen as roughly a quarter of the message
        length (at least 2), adjusted so ``n + c`` is even.
        """
        if message_length < 1:
            raise ConfigurationError("message_length must be positive")
        num_check_bits = cls.default_check_bits(message_length)
        return cls(
            message_length=message_length,
            num_check_bits=num_check_bits,
            identity_pairs=identity_pairs,
            check_pairs_per_round=check_pairs_per_round,
            channel=IdentityChainChannel(eta=eta),
            seed=seed,
        )

    # -- derived quantities ---------------------------------------------------------
    @property
    def num_message_pairs(self) -> int:
        """``N = (n + c) / 2`` — pairs consumed by the combined message string."""
        return (self.message_length + self.num_check_bits) // 2

    @property
    def total_pairs(self) -> int:
        """``N + 2l + 2d`` — total EPR pairs shared in step 1."""
        return (
            self.num_message_pairs
            + 2 * self.identity_pairs
            + 2 * self.check_pairs_per_round
        )

    @property
    def qubits_per_message_bit(self) -> float:
        """Transmitted qubits per *useful* message bit (1/2 pair = 1 qubit per 2 bits → 0.5...).

        The paper's Table I counts 1 qubit per message bit for the proposed
        protocol: each EPR pair carries 2 bits and consists of 2 qubits.
        """
        return (2 * self.num_message_pairs) / self.message_length

    # -- validation --------------------------------------------------------------------
    def validate(self) -> "ProtocolConfig":
        """Raise :class:`ConfigurationError` if any parameter is inconsistent."""
        if self.message_length < 1:
            raise ConfigurationError("message_length must be positive")
        if self.num_check_bits < 0:
            raise ConfigurationError("num_check_bits cannot be negative")
        if (self.message_length + self.num_check_bits) % 2 != 0:
            raise ConfigurationError(
                "message_length + num_check_bits must be even (2 bits per EPR pair)"
            )
        if self.identity_pairs < 1:
            raise ConfigurationError("identity_pairs must be at least 1")
        if self.check_pairs_per_round < 1:
            raise ConfigurationError("check_pairs_per_round must be at least 1")
        if not 0.0 <= self.authentication_tolerance < 1.0:
            raise ConfigurationError("authentication_tolerance must lie in [0, 1)")
        if not 0.0 <= self.check_bit_tolerance < 1.0:
            raise ConfigurationError("check_bit_tolerance must lie in [0, 1)")
        if self.memory_hold_time < 0:
            raise ConfigurationError("memory_hold_time cannot be negative")
        if self.memory_decoherence is not None and self.memory_decoherence.num_qubits != 1:
            raise ConfigurationError("memory_decoherence must be a single-qubit channel")
        if self.alice_identity is not None and self.alice_identity.num_pairs != self.identity_pairs:
            raise ConfigurationError(
                "alice_identity length does not match identity_pairs"
            )
        if self.bob_identity is not None and self.bob_identity.num_pairs != self.identity_pairs:
            raise ConfigurationError(
                "bob_identity length does not match identity_pairs"
            )
        if self.scenario is not None:
            from repro.attacks.scenarios import as_schedule

            try:
                as_schedule(self.scenario)
            except Exception as error:
                raise ConfigurationError(f"invalid scenario: {error}") from error
        return self

    def resolved_scenario(self):
        """The scenario normalised to a :class:`~repro.attacks.scenarios.ScenarioSchedule` (or None)."""
        if self.scenario is None:
            return None
        from repro.attacks.scenarios import as_schedule

        return as_schedule(self.scenario)

    def materialise_identities(self, rng=None) -> tuple[Identity, Identity]:
        """Return (id_A, id_B), generating any that were not supplied explicitly."""
        generator = as_rng(rng)
        alice = self.alice_identity or Identity.random(
            self.identity_pairs, owner="alice", rng=generator
        )
        bob = self.bob_identity or Identity.random(
            self.identity_pairs, owner="bob", rng=generator
        )
        return alice, bob

    def with_channel(self, channel: QuantumChannel) -> "ProtocolConfig":
        """A copy of the configuration with a different quantum channel."""
        return replace(self, channel=channel)

    def with_seed(self, seed: int | None) -> "ProtocolConfig":
        """A copy of the configuration with a different master seed."""
        return replace(self, seed=seed)

    def with_memory(
        self, decoherence: KrausChannel | None, hold_time: float
    ) -> "ProtocolConfig":
        """A copy with a different storage-memory model for Alice's hold period."""
        return replace(
            self, memory_decoherence=decoherence, memory_hold_time=hold_time
        )

    def with_scenario(self, scenario) -> "ProtocolConfig":
        """A copy with a declarative adversarial scenario (None = honest)."""
        return replace(self, scenario=scenario)

"""Service configuration: a fluent builder over every execution mode.

:class:`ServiceConfig` is the one knob surface of the messaging facade.  It
is an immutable dataclass; every ``with_*`` method returns a modified copy,
so configurations compose fluently::

    config = (ServiceConfig.paper_default()
              .with_backend("batch")
              .with_fragment_bits(32)
              .with_seed(7))

Presets
-------
=====================  ========================================================
``paper_default()``    The paper's single-link parameters: η=10 identity-gate
                       channel, 8 identity pairs, 256 check pairs per DI round.
``ideal()``            Noiseless channel, lighter DI rounds (128 check pairs)
                       — the fastest way to demonstrate the protocol logic.
``noisy_nisq()``       η=50 identity-gate channel (≈3 µs NISQ link), 128 check
                       pairs — errors appear but deliveries mostly succeed.
``networked(topology)``  Multi-hop trusted-relay delivery through the network
                       scheduler; pair with ``send(..., to="node")``.
=====================  ========================================================

The protocol-level fields mirror :class:`~repro.protocol.config.ProtocolConfig`
(:meth:`ServiceConfig.protocol_config` performs the mapping per fragment); the
service-level fields control fragmentation, retransmission and backend
selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.api.fragmentation import MAX_FRAGMENT_BITS
from repro.channel.quantum_channel import (
    IdentityChainChannel,
    NoiselessChannel,
    QuantumChannel,
)
from repro.exceptions import ConfigurationError
from repro.protocol.config import ProtocolConfig
from repro.protocol.identity import Identity
from repro.quantum.channels import KrausChannel

__all__ = ["BACKEND_NAMES", "ServiceConfig"]

#: Backend names accepted by :meth:`ServiceConfig.with_backend`.
BACKEND_NAMES = ("local", "batch", "network")

#: Executors the batch/network backends accept (``"process"`` is excluded:
#: fragment workers close over live channel/attack objects, which are not
#: generally picklable — the same constraint as the network scheduler).
API_EXECUTORS = ("serial", "thread")


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable configuration of a :class:`~repro.api.service.MessagingService`.

    Attributes
    ----------
    backend:
        Execution backend: ``"local"`` (sequential single-link sessions),
        ``"batch"`` (fragment fan-out through the parallel sweep substrate)
        or ``"network"`` (multi-hop delivery through the network scheduler).
    fragment_bits:
        Payload bits per fragment (framing overhead is added on top).
    framing:
        If True (default) fragments travel with the 64-bit header + CRC of
        :mod:`repro.api.fragmentation`.  If False the payload is sent as one
        raw, unframed fragment — bit-identical to calling
        :class:`~repro.protocol.runner.UADIQSDCProtocol` directly, at the
        cost of losing reassembly metadata and CRC verification.
    max_retries:
        Retransmissions allowed per fragment after an abort or a failed
        frame verification (0 disables retransmission).
    seed:
        Service-level master seed; every fragment/attempt seed derives from
        it (None = fresh entropy per send).
    channel, distribution_channel, identity_pairs, check_pairs_per_round,
    num_check_bits, authentication_tolerance, check_bit_tolerance,
    memory_decoherence, memory_hold_time, alice_identity, bob_identity:
        Per-fragment protocol parameters, mapped one-to-one onto
        :class:`~repro.protocol.config.ProtocolConfig` (``num_check_bits``
        None = the ``ProtocolConfig.default`` quarter-length rule).
    attack_factory:
        Optional ``(fragment_index, attempt, rng) -> attack | None`` hook for
        security studies through the facade (local/batch backends; network
        nodes are compromised via the topology instead).
    scenario:
        Optional declarative adversary
        (:class:`~repro.attacks.scenarios.AttackScenario`,
        :class:`~repro.attacks.scenarios.ScenarioSchedule`, a serialised
        dict, or a registered preset name).  On the local/batch backends it
        is mapped onto every fragment's
        :attr:`~repro.protocol.config.ProtocolConfig.scenario`, so each
        fragment session builds the attack deterministically from its own
        seed; on the network backend it rides the per-fragment
        :class:`~repro.network.sessions.SessionRequest` and applies to the
        hops its target layer selects.  Mutually exclusive with
        ``attack_factory`` (the imperative spelling).
    executor, max_workers:
        Worker pool for the batch backend and the network scheduler's
        execution pass (``"serial"`` or ``"thread"``; both produce identical
        results).
    topology, source, target, session_params, routing_policy, max_wait:
        Network-backend settings: the graph, default endpoints, fleet-wide
        per-hop protocol parameters, routing policy and admission patience.
    """

    backend: str = "local"
    fragment_bits: int = 64
    framing: bool = True
    max_retries: int = 2
    seed: "int | None" = None
    # -- per-fragment protocol parameters ----------------------------------------
    channel: QuantumChannel = field(default_factory=lambda: IdentityChainChannel(eta=10))
    distribution_channel: "QuantumChannel | None" = None
    identity_pairs: int = 8
    check_pairs_per_round: int = 256
    num_check_bits: "int | None" = None
    authentication_tolerance: float = 0.25
    check_bit_tolerance: float = 0.15
    memory_decoherence: "KrausChannel | None" = None
    memory_hold_time: float = 0.0
    alice_identity: "Identity | None" = None
    bob_identity: "Identity | None" = None
    attack_factory: "Callable[[int, int, Any], Any] | None" = None
    scenario: Any = None
    # -- execution ---------------------------------------------------------------
    executor: str = "thread"
    max_workers: "int | None" = None
    # -- network backend ---------------------------------------------------------
    topology: Any = None
    source: "str | None" = None
    target: "str | None" = None
    session_params: Any = None
    routing_policy: str = "hops"
    max_wait: "float | None" = None

    # -- presets -----------------------------------------------------------------
    @classmethod
    def paper_default(cls, seed: "int | None" = None) -> "ServiceConfig":
        """The paper's single-link parameters (η=10, l=8, d=256)."""
        return cls(seed=seed)

    @classmethod
    def ideal(cls, seed: "int | None" = None) -> "ServiceConfig":
        """Noiseless channel with lighter DI rounds — fast and error-free."""
        return cls(channel=NoiselessChannel(), check_pairs_per_round=128, seed=seed)

    @classmethod
    def noisy_nisq(cls, seed: "int | None" = None, eta: int = 50) -> "ServiceConfig":
        """An η-identity-gate NISQ link (default η=50 ≈ 3 µs of gates)."""
        return cls(
            channel=IdentityChainChannel(eta=eta),
            check_pairs_per_round=128,
            seed=seed,
        )

    @classmethod
    def networked(
        cls,
        topology: Any,
        source: "str | None" = None,
        target: "str | None" = None,
        seed: "int | None" = None,
    ) -> "ServiceConfig":
        """Multi-hop delivery through the PR-2 network scheduler.

        ``source``/``target`` default to the topology's first and last node;
        ``send(..., to=...)`` overrides the target per call.
        """
        return cls(backend="network", topology=topology, source=source,
                   target=target, seed=seed)

    # -- fluent modifiers --------------------------------------------------------
    def with_backend(self, backend: str) -> "ServiceConfig":
        return replace(self, backend=backend)

    def with_fragment_bits(self, fragment_bits: int) -> "ServiceConfig":
        return replace(self, fragment_bits=fragment_bits)

    def with_framing(self, framing: bool) -> "ServiceConfig":
        return replace(self, framing=framing)

    def with_retries(self, max_retries: int) -> "ServiceConfig":
        return replace(self, max_retries=max_retries)

    def with_seed(self, seed: "int | None") -> "ServiceConfig":
        return replace(self, seed=seed)

    def with_channel(self, channel: QuantumChannel) -> "ServiceConfig":
        return replace(self, channel=channel)

    def with_distribution_channel(
        self, channel: "QuantumChannel | None"
    ) -> "ServiceConfig":
        return replace(self, distribution_channel=channel)

    def with_identity_pairs(self, identity_pairs: int) -> "ServiceConfig":
        return replace(self, identity_pairs=identity_pairs)

    def with_check_pairs(self, check_pairs_per_round: int) -> "ServiceConfig":
        return replace(self, check_pairs_per_round=check_pairs_per_round)

    def with_check_bits(self, num_check_bits: "int | None") -> "ServiceConfig":
        return replace(self, num_check_bits=num_check_bits)

    def with_tolerances(
        self,
        authentication_tolerance: "float | None" = None,
        check_bit_tolerance: "float | None" = None,
    ) -> "ServiceConfig":
        updates: dict[str, float] = {}
        if authentication_tolerance is not None:
            updates["authentication_tolerance"] = authentication_tolerance
        if check_bit_tolerance is not None:
            updates["check_bit_tolerance"] = check_bit_tolerance
        return replace(self, **updates)

    def with_memory(
        self, decoherence: "KrausChannel | None", hold_time: float
    ) -> "ServiceConfig":
        return replace(
            self, memory_decoherence=decoherence, memory_hold_time=hold_time
        )

    def with_identities(
        self, alice: "Identity | None", bob: "Identity | None"
    ) -> "ServiceConfig":
        return replace(self, alice_identity=alice, bob_identity=bob)

    def with_attack_factory(
        self, attack_factory: "Callable[[int, int, Any], Any] | None"
    ) -> "ServiceConfig":
        return replace(self, attack_factory=attack_factory)

    def with_scenario(self, scenario: Any) -> "ServiceConfig":
        """A copy with a declarative adversarial scenario (None = honest)."""
        return replace(self, scenario=scenario)

    def with_executor(
        self, executor: str, max_workers: "int | None" = None
    ) -> "ServiceConfig":
        return replace(self, executor=executor, max_workers=max_workers)

    def with_network(
        self,
        topology: Any = None,
        source: "str | None" = None,
        target: "str | None" = None,
        session_params: Any = None,
        routing_policy: "str | None" = None,
        max_wait: "float | None" = None,
    ) -> "ServiceConfig":
        """Update network-backend settings (only the arguments given)."""
        updates: dict[str, Any] = {}
        if topology is not None:
            updates["topology"] = topology
        if source is not None:
            updates["source"] = source
        if target is not None:
            updates["target"] = target
        if session_params is not None:
            updates["session_params"] = session_params
        if routing_policy is not None:
            updates["routing_policy"] = routing_policy
        if max_wait is not None:
            updates["max_wait"] = max_wait
        return replace(self, **updates)

    # -- validation and mapping --------------------------------------------------
    def validate(self) -> "ServiceConfig":
        """Raise :class:`ConfigurationError` on any inconsistent setting."""
        if self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; known: {BACKEND_NAMES}"
            )
        if not 1 <= self.fragment_bits <= MAX_FRAGMENT_BITS:
            raise ConfigurationError(
                f"fragment_bits must lie in 1..{MAX_FRAGMENT_BITS}, "
                f"got {self.fragment_bits}"
            )
        if self.max_retries < 0:
            raise ConfigurationError("max_retries cannot be negative")
        if self.executor not in API_EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {self.executor!r}; the service supports "
                f"{API_EXECUTORS}"
            )
        if self.attack_factory is not None and self.scenario is not None:
            raise ConfigurationError(
                "attack_factory and scenario are mutually exclusive; "
                "use the declarative scenario spelling"
            )
        if self.backend == "network":
            if self.topology is None:
                raise ConfigurationError(
                    "the network backend needs a topology; use "
                    "ServiceConfig.networked(topology) or with_network(topology=...)"
                )
            if self.attack_factory is not None:
                raise ConfigurationError(
                    "attack_factory applies to the local/batch backends; "
                    "compromise a topology node or set a scenario for "
                    "network attack studies"
                )
        # Delegate per-fragment parameter validation to ProtocolConfig using a
        # representative even-length fragment.
        self.protocol_config(message_length=2, seed=0).validate()
        return self

    def protocol_config(self, message_length: int, seed: int) -> ProtocolConfig:
        """The :class:`ProtocolConfig` for one fragment of *message_length* bits.

        Check bits follow :meth:`ProtocolConfig.default_check_bits`: the
        quarter-length rule when ``num_check_bits`` is None, and in either
        case an upward parity adjustment so ``n + c`` is even — an explicit
        count may therefore run as ``num_check_bits + 1`` on odd-length
        fragments (the same convention as the network layer's
        :meth:`~repro.network.sessions.SessionParameters.check_bits_for`).
        """
        return ProtocolConfig(
            message_length=message_length,
            num_check_bits=ProtocolConfig.default_check_bits(
                message_length, self.num_check_bits
            ),
            identity_pairs=self.identity_pairs,
            check_pairs_per_round=self.check_pairs_per_round,
            authentication_tolerance=self.authentication_tolerance,
            check_bit_tolerance=self.check_bit_tolerance,
            channel=self.channel,
            distribution_channel=self.distribution_channel,
            memory_decoherence=self.memory_decoherence,
            memory_hold_time=self.memory_hold_time,
            alice_identity=self.alice_identity,
            bob_identity=self.bob_identity,
            seed=seed,
            scenario=self.scenario,
        )

    def create_backend(self) -> Any:
        """Instantiate the configured :class:`~repro.api.backends.Backend`."""
        from repro.api.backends import BACKENDS

        return BACKENDS[self.backend]()

    def describe(self) -> dict[str, Any]:
        """Compact JSON-friendly echo of the service-level settings."""
        scenario_label = None
        if self.scenario is not None:
            from repro.attacks.scenarios import as_schedule

            scenario_label = as_schedule(self.scenario).label
        return {
            "backend": self.backend,
            **({"scenario": scenario_label} if scenario_label else {}),
            "fragment_bits": self.fragment_bits,
            "framing": self.framing,
            "max_retries": self.max_retries,
            "channel": self.channel.name,
            "identity_pairs": self.identity_pairs,
            "check_pairs_per_round": self.check_pairs_per_round,
            "executor": self.executor,
        }

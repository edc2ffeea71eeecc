"""Orchestration of the full UA-DI-QSDC protocol (paper §II, steps 1–6).

:class:`UADIQSDCProtocol` wires together the source, the channels, the two
parties, the DI security checks and the transcript, and executes one complete
session:

1. entanglement sharing of ``N + 2l + 2d`` pairs;
2. first DI security check (CHSH) on ``d`` random pairs;
3. Alice's encoding (message on ``M_A``, ``id_A`` on ``C_A``, cover
   operations on ``D_A``);
4. transmission of Alice's qubits to Bob, then mutual identity
   authentication (Bob encodes ``id_B`` on ``D_B``, measures and announces;
   Bob then verifies ``id_A`` on ``C_A`` without announcing);
5. second DI security check on the reserved ``d`` pairs;
6. Bell-state decoding of the message and check-bit verification.

Every abort point of the paper maps onto an
:class:`~repro.protocol.results.AbortReason`.  Attack models plug in through
four optional hooks (see :class:`repro.attacks.base.Attack`): source
interception, transmission interception, classical-channel observation and
party impersonation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.channel.memory import QuantumMemory
from repro.exceptions import (
    AuthenticationFailure,
    ProtocolAbort,
    ProtocolError,
    SecurityCheckFailure,
)
from repro.protocol.chsh import CHSHEstimate, DISecurityCheck
from repro.protocol.config import ProtocolConfig
from repro.protocol.encoding import MessageEncoder
from repro.protocol.pairs import EPRPairRegister
from repro.protocol.parties import ALICE_QUBIT, Alice, Bob
from repro.protocol.results import AbortReason, ProtocolResult
from repro.protocol.transcript import ProtocolTranscript
from repro.quantum.density import DensityMatrix
from repro.telemetry import runtime as telemetry
from repro.utils.bits import Bits, bits_to_str, bitstring_to_bits, hamming_distance, validate_bits
from repro.utils.rng import as_rng, derive_rng

__all__ = ["SessionCaches", "UADIQSDCProtocol", "run_session_batch"]


@dataclass
class SessionCaches:
    """Memoisation state shared by a batch of protocol sessions.

    A sweep or service wave runs many sessions whose pairs carry the same
    handful of quantum states (the Pauli encodings of one channel output) and
    whose security checks measure the same states under the same settings.
    Each session's fast path already memoises those statistics *within* the
    session; threading one :class:`SessionCaches` through a batch hoists the
    memo across sessions, so the eigendecompositions and projector
    applications run once per batch instead of once per session.

    Sharing is exact: cache keys are configuration-independent (state bytes,
    plus the CHSH settings for branch statistics), the cached floats are the
    very values a solo session would compute, and per-pair RNG consumption is
    unchanged — so batched sessions are bit-identical to unbatched ones
    (asserted by ``tests/protocol/test_memoization_parity.py``).
    """

    chsh_branches: dict = field(default_factory=dict)
    bell_probabilities: dict = field(default_factory=dict)


def run_session_batch(
    sessions: "list[tuple[ProtocolConfig, Any, str | Bits]]",
    caches: SessionCaches | None = None,
) -> list:
    """Run ``(config, attack, message)`` sessions sharing one memo state.

    The fused counterpart of a per-session loop over
    ``UADIQSDCProtocol(config, attack).run(message)``: each session still
    consumes only its own seed-derived randomness (results are bit-identical
    to solo runs), but state-dependent measurement statistics are computed
    once per batch through *caches* (a fresh :class:`SessionCaches` when not
    supplied).
    """
    if caches is None:
        caches = SessionCaches()
    return [
        UADIQSDCProtocol(config, attack=attack, caches=caches).run(message)
        for config, attack, message in sessions
    ]


class UADIQSDCProtocol:
    """One configurable, runnable instance of the UA-DI-QSDC protocol.

    Parameters
    ----------
    config:
        The session parameters (validated on construction).
    attack:
        Optional attack model implementing any subset of the hooks documented
        in :class:`repro.attacks.base.Attack`.  ``None`` runs an honest session.
    caches:
        Optional :class:`SessionCaches` shared with other sessions of a
        batch (see :func:`run_session_batch`); bit-identical to running
        without it.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        attack: Any | None = None,
        caches: "SessionCaches | None" = None,
    ):
        self.config = config.validate()
        self.attack = attack
        self.caches = caches

    # -- public API ----------------------------------------------------------------
    def run(self, message: "str | Bits") -> ProtocolResult:
        """Execute the protocol end to end for the given secret message."""
        with telemetry.span("protocol.session", "protocol") as span:
            result = self._run(message)
            span.attributes["success"] = result.success
            if result.abort_reason is not AbortReason.NONE:
                span.attributes["abort_reason"] = result.abort_reason.value
        return result

    def _run(self, message: "str | Bits") -> ProtocolResult:
        message_bits = self._coerce_message(message)
        rng = as_rng(self.config.seed)
        alice_rng = derive_rng(rng, "alice")
        bob_rng = derive_rng(rng, "bob")
        chsh_rng = derive_rng(rng, "chsh")
        attack_rng = derive_rng(rng, "attack")

        # An explicit attack object wins; otherwise a declarative scenario on
        # the config builds one per run from seed-derived randomness, which is
        # what makes scenario-driven sessions exactly reproducible.  Scenario
        # construction only touches attack_rng, so scenario-less sessions stay
        # bit-identical to the historical path.
        attack = self.attack
        if attack is None:
            schedule = self.config.resolved_scenario()
            if schedule is not None:
                attack = schedule.build(attack_rng)

        identity_alice, identity_bob = self.config.materialise_identities(rng)
        encoding_identity_alice, encoding_identity_bob = self._apply_impersonation(
            identity_alice, identity_bob, attack_rng, attack
        )

        # Bob and the security check memoise state-keyed measurement
        # statistics (their default); both are bit-identical to their
        # memoize=False reference engines by construction.
        caches = self.caches
        alice = Alice(
            identity=encoding_identity_alice, peer_identity=identity_bob, rng=alice_rng
        )
        bob = Bob(
            identity=encoding_identity_bob,
            peer_identity=identity_alice,
            rng=bob_rng,
            shared_probability_cache=None if caches is None else caches.bell_probabilities,
        )

        transcript = ProtocolTranscript()
        if attack is not None and hasattr(attack, "observe_announcement"):
            transcript.classical_channel.add_tap(attack.observe_announcement)

        register = EPRPairRegister(
            num_message_pairs=self.config.num_message_pairs,
            num_identity_pairs=self.config.identity_pairs,
            num_check_pairs=self.config.check_pairs_per_round,
        )

        # ----- Step 1: entanglement sharing -------------------------------------------
        pairs = self._share_entanglement(register, attack)
        transcript.record_phase(
            "entanglement_sharing", True, num_pairs=register.total_pairs
        )

        # ----- Step 2: first DI security check ------------------------------------------
        round1_positions = register.assign_round1_check(rng=alice_rng)
        transcript.announce("alice", "round1_check_positions", list(round1_positions))
        security_check = DISecurityCheck(
            self.config.chsh_settings,
            shared_branch_cache=None if caches is None else caches.chsh_branches,
        )
        chsh_round1 = security_check.estimate(
            [pairs[p] for p in round1_positions], rng=chsh_rng
        )
        transcript.announce("both", "round1_chsh_value", chsh_round1.value)
        transcript.record_phase(
            "round1_security_check",
            chsh_round1.passed(),
            chsh_value=chsh_round1.value,
            epsilon=chsh_round1.epsilon,
        )
        for position in round1_positions:
            pairs.pop(position)
        if not chsh_round1.passed():
            return self._abort(
                attack,
                AbortReason.ROUND1_CHSH_FAILED,
                message_bits,
                transcript,
                register,
                chsh_round1=chsh_round1,
            )

        # ----- Hold period: Alice stores her halves between check and encoding ---------------
        pairs = self._memory_hold(pairs, transcript)

        # ----- Step 3: Alice's encoding -----------------------------------------------------
        round2_positions = register.assign_round2_check(rng=alice_rng)
        message_positions = register.assign_message(rng=alice_rng)
        alice_id_positions = register.assign_alice_identity(rng=alice_rng)
        bob_id_positions = register.assign_bob_identity(rng=alice_rng)

        encoder = MessageEncoder(self.config.num_check_bits)
        encoded = encoder.encode(message_bits, rng=alice_rng)
        if encoded.num_pairs != len(message_positions):
            raise ProtocolError(
                f"encoded message needs {encoded.num_pairs} pairs but "
                f"{len(message_positions)} were reserved"
            )
        encoding_plan = {}
        encoding_plan.update(alice.message_pauli_plan(encoded.pauli_labels, message_positions))
        encoding_plan.update(alice.identity_pauli_plan(alice_id_positions))
        encoding_plan.update(alice.cover_plan(bob_id_positions))
        pairs = Alice.apply_plan(pairs, encoding_plan)
        transcript.record_phase(
            "encoding",
            True,
            message_pairs=len(message_positions),
            identity_pairs=len(alice_id_positions),
            cover_pairs=len(bob_id_positions),
        )

        # ----- Step 4: transmission and authentication -----------------------------------------
        pairs = self._transmit(pairs, attack)
        transcript.record_phase(
            "transmission", True, channel=self.config.channel.name,
            transmitted_pairs=len(pairs),
        )

        transcript.announce("alice", "bob_identity_positions", list(bob_id_positions))
        pairs = Bob.apply_plan(pairs, bob.identity_pauli_plan(bob_id_positions))
        announced_outcomes = bob.bell_measure(pairs, bob_id_positions)
        transcript.announce(
            "bob",
            "authentication_bsm_results",
            {position: outcome.value for position, outcome in announced_outcomes.items()},
        )
        for position in bob_id_positions:
            pairs.pop(position)
        bob_auth_error = alice.verify_bob(announced_outcomes, bob_id_positions)
        bob_auth_passed = bob_auth_error <= self.config.authentication_tolerance
        transcript.record_phase(
            "bob_authentication", bob_auth_passed, error_rate=bob_auth_error
        )
        if not bob_auth_passed:
            return self._abort(
                attack,
                AbortReason.BOB_AUTHENTICATION_FAILED,
                message_bits,
                transcript,
                register,
                chsh_round1=chsh_round1,
                bob_authentication_error=bob_auth_error,
            )

        transcript.announce("alice", "alice_identity_positions", list(alice_id_positions))
        alice_id_outcomes = bob.bell_measure(pairs, alice_id_positions)
        # The C_A outcomes are deliberately NOT announced so id_A stays reusable.
        for position in alice_id_positions:
            pairs.pop(position)
        alice_auth_error = bob.verify_alice(alice_id_outcomes, alice_id_positions)
        alice_auth_passed = alice_auth_error <= self.config.authentication_tolerance
        transcript.record_phase(
            "alice_authentication", alice_auth_passed, error_rate=alice_auth_error
        )
        if not alice_auth_passed:
            return self._abort(
                attack,
                AbortReason.ALICE_AUTHENTICATION_FAILED,
                message_bits,
                transcript,
                register,
                chsh_round1=chsh_round1,
                bob_authentication_error=bob_auth_error,
                alice_authentication_error=alice_auth_error,
            )

        # ----- Step 5: second DI security check -----------------------------------------------------
        transcript.announce("alice", "round2_check_positions", list(round2_positions))
        chsh_round2 = security_check.estimate(
            [pairs[p] for p in round2_positions], rng=chsh_rng
        )
        transcript.announce("bob", "round2_chsh_value", chsh_round2.value)
        transcript.record_phase(
            "round2_security_check",
            chsh_round2.passed(),
            chsh_value=chsh_round2.value,
            epsilon=chsh_round2.epsilon,
        )
        for position in round2_positions:
            pairs.pop(position)
        if not chsh_round2.passed():
            return self._abort(
                attack,
                AbortReason.ROUND2_CHSH_FAILED,
                message_bits,
                transcript,
                register,
                chsh_round1=chsh_round1,
                chsh_round2=chsh_round2,
                bob_authentication_error=bob_auth_error,
                alice_authentication_error=alice_auth_error,
            )

        # ----- Step 6: message decoding ----------------------------------------------------------------
        message_outcomes = bob.bell_measure(pairs, message_positions)
        combined = Bob.decode_message_bits(message_outcomes, message_positions)
        transcript.announce(
            "alice",
            "check_bit_disclosure",
            {
                "positions": list(encoded.check_positions),
                "values": list(encoded.check_bits),
            },
        )
        decoded_message, decoded_check = MessageEncoder.split_message_and_check(
            combined, encoded.check_positions
        )
        if encoded.check_bits:
            check_bit_error = hamming_distance(decoded_check, encoded.check_bits) / len(
                encoded.check_bits
            )
        else:
            check_bit_error = 0.0
        integrity_passed = check_bit_error <= self.config.check_bit_tolerance
        transcript.record_phase(
            "message_decoding", integrity_passed, check_bit_error_rate=check_bit_error
        )
        if not integrity_passed:
            return self._abort(
                attack,
                AbortReason.MESSAGE_INTEGRITY_FAILED,
                message_bits,
                transcript,
                register,
                chsh_round1=chsh_round1,
                chsh_round2=chsh_round2,
                bob_authentication_error=bob_auth_error,
                alice_authentication_error=alice_auth_error,
                check_bit_error_rate=check_bit_error,
            )

        message_bit_error = (
            hamming_distance(decoded_message, message_bits) / len(message_bits)
        )
        return ProtocolResult(
            success=True,
            abort_reason=AbortReason.NONE,
            sent_message=message_bits,
            delivered_message=decoded_message,
            chsh_round1=chsh_round1,
            chsh_round2=chsh_round2,
            bob_authentication_error=bob_auth_error,
            alice_authentication_error=alice_auth_error,
            check_bit_error_rate=check_bit_error,
            message_bit_error_rate=message_bit_error,
            phases=list(transcript.phases),
            pair_summary=register.summary(),
            metadata=self._metadata(attack),
        )

    # -- helpers -----------------------------------------------------------------------
    @staticmethod
    def _coerce_message(message: "str | Bits") -> Bits:
        if isinstance(message, str):
            return bitstring_to_bits(message)
        return validate_bits(message)

    def _apply_impersonation(self, identity_alice, identity_bob, attack_rng, attack):
        """Swap in the attacker's guessed identity when Eve impersonates a party."""
        encoding_alice, encoding_bob = identity_alice, identity_bob
        if attack is None:
            return encoding_alice, encoding_bob
        impersonates = getattr(attack, "impersonates", None)
        if impersonates == "alice":
            encoding_alice = attack.forged_identity(
                identity_alice.num_pairs, rng=attack_rng
            )
        elif impersonates == "bob":
            encoding_bob = attack.forged_identity(
                identity_bob.num_pairs, rng=attack_rng
            )
        return encoding_alice, encoding_bob

    def _share_entanglement(
        self, register: EPRPairRegister, attack
    ) -> dict[int, DensityMatrix]:
        """Emit every pair and distribute Bob's halves (batched channel pass).

        The honest source emits the same ``|Φ+⟩`` state for every index, so
        the distribution channel is applied through
        :meth:`~repro.channel.quantum_channel.QuantumChannel.transmit_batch`,
        which collapses identical inputs to a single Kraus application.  The
        attack's source hook (if any) still sees every pair individually, in
        index order, after distribution — the same observation point as the
        sequential implementation.
        """
        emitted = self.config.source.emit_many(register.total_pairs)
        if self.config.distribution_channel is not None:
            emitted = self.config.distribution_channel.transmit_batch(emitted, 1)
        if attack is not None and hasattr(attack, "intercept_source"):
            emitted = [
                attack.intercept_source(index, state)
                for index, state in enumerate(emitted)
            ]
        return dict(enumerate(emitted))

    def _memory_hold(
        self, pairs: dict[int, DensityMatrix], transcript: ProtocolTranscript
    ) -> dict[int, DensityMatrix]:
        """Hold Alice's halves in quantum memory while the round-1 check runs.

        Every surviving pair is stored in a :class:`QuantumMemory`, the memory
        clock advances by ``config.memory_hold_time``, and the pairs are
        retrieved again — which applies the configured storage-decoherence
        channel once per stored qubit per elapsed time unit.  With the default
        ideal memory (no decoherence channel, zero hold time) the retrieval
        is an exact pass-through and no phase is recorded, so results stay
        bit-identical to the paper's ideal-memory sessions.

        The decoherence application is batched over *distinct* pair states
        (same structure-sharing trick as ``transmit_batch``): after step 2 all
        surviving pairs carry the same post-distribution state, so a
        decohering hold costs one Kraus application instead of one per pair.
        """
        decoherence = self.config.memory_decoherence
        hold_time = self.config.memory_hold_time
        memory = QuantumMemory(decoherence)
        for position in pairs:
            memory.store(position, (ALICE_QUBIT,))
        memory.advance_time(hold_time)
        evolved_cache: dict[bytes, DensityMatrix] = {}
        held: dict[int, DensityMatrix] = {}
        for position, state in pairs.items():
            key = state.matrix.tobytes()
            cached = evolved_cache.get(key)
            if cached is None:
                _, cached = memory.retrieve(position, state)
                evolved_cache[key] = cached
            else:
                memory.retrieve(position)
            held[position] = cached
        if decoherence is not None or hold_time > 0:
            transcript.record_phase(
                "memory_hold",
                True,
                hold_time=hold_time,
                ideal=decoherence is None,
                stored_pairs=len(held),
            )
        return held

    def _transmit(
        self, pairs: dict[int, DensityMatrix], attack
    ) -> dict[int, DensityMatrix]:
        """Send Alice's halves through the quantum channel (and any attack).

        The channel pass is batched over identical pair states; the attack's
        transmission hook (if any) then intercepts each transmitted pair in
        position order, exactly as in the sequential implementation.
        """
        positions = list(pairs)
        transmitted = self.config.channel.transmit_batch(
            [pairs[position] for position in positions], ALICE_QUBIT
        )
        if attack is not None and hasattr(attack, "intercept_transmission"):
            transmitted = [
                attack.intercept_transmission(position, state)
                for position, state in zip(positions, transmitted)
            ]
        return dict(zip(positions, transmitted))

    def _metadata(self, attack) -> dict[str, Any]:
        return {
            "channel": self.config.channel.name,
            "attack": None if attack is None else getattr(attack, "name", "attack"),
            "identity_pairs": self.config.identity_pairs,
            "check_pairs_per_round": self.config.check_pairs_per_round,
            "message_length": self.config.message_length,
            "num_check_bits": self.config.num_check_bits,
        }

    def _abort(
        self,
        attack,
        reason: AbortReason,
        message_bits: Bits,
        transcript: ProtocolTranscript,
        register: EPRPairRegister,
        chsh_round1: CHSHEstimate | None = None,
        chsh_round2: CHSHEstimate | None = None,
        bob_authentication_error: float | None = None,
        alice_authentication_error: float | None = None,
        check_bit_error_rate: float | None = None,
    ) -> ProtocolResult:
        if self.config.raise_on_abort:
            message = f"protocol aborted: {reason.value}"
            if reason in (
                AbortReason.ROUND1_CHSH_FAILED,
                AbortReason.ROUND2_CHSH_FAILED,
            ):
                raise SecurityCheckFailure(reason.value, message)
            if reason in (
                AbortReason.BOB_AUTHENTICATION_FAILED,
                AbortReason.ALICE_AUTHENTICATION_FAILED,
            ):
                raise AuthenticationFailure(reason.value, message)
            raise ProtocolAbort(reason.value, message)
        return ProtocolResult(
            success=False,
            abort_reason=reason,
            sent_message=message_bits,
            delivered_message=None,
            chsh_round1=chsh_round1,
            chsh_round2=chsh_round2,
            bob_authentication_error=bob_authentication_error,
            alice_authentication_error=alice_authentication_error,
            check_bit_error_rate=check_bit_error_rate,
            message_bit_error_rate=None,
            phases=list(transcript.phases),
            pair_summary=register.summary(),
            metadata=self._metadata(attack),
        )

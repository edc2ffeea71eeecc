"""The two legitimate parties of the protocol.

:class:`Alice` (the sender) and :class:`Bob` (the receiver) hold the
pre-shared identities and perform the quantum operations of their respective
protocol steps on the shared pair states.  The orchestration order — who acts
when, what is announced — lives in :class:`~repro.protocol.runner.UADIQSDCProtocol`;
the parties only implement the individual operations so that attack models can
substitute or impersonate either side cleanly.

Pair states are handled as a mapping ``position -> DensityMatrix`` where
qubit 0 of each two-qubit state is the half originating at Alice and qubit 1
is Bob's half.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ProtocolError
from repro.protocol.encoding import (
    decode_bell_state_to_bits,
    encode_bits_to_pauli,
    expected_bell_state,
    pauli_operator,
    random_cover_operations,
)
from repro.protocol.identity import Identity
from repro.quantum.bell import BellState
from repro.quantum.density import DensityMatrix
from repro.quantum.measurement import (
    bell_basis_probability_vector,
    bell_measurement,
    sample_bell_outcome,
)
from repro.utils.bits import Bits
from repro.utils.rng import as_rng

__all__ = ["Alice", "Bob"]

#: Qubit index (within a pair state) of the half Alice initially holds.
ALICE_QUBIT = 0

#: Qubit index (within a pair state) of the half Bob initially holds.
BOB_QUBIT = 1


def _apply_pauli(state: DensityMatrix, label: str, qubit: int) -> DensityMatrix:
    """Apply a single-qubit Pauli by label to one half of a pair state."""
    if label.upper() == "I":
        return state
    return state.evolve(pauli_operator(label), [qubit])


@dataclass
class Alice:
    """The sender: encodes the message and her identity, verifies Bob's identity.

    Attributes
    ----------
    identity:
        Alice's own secret ``id_A``.
    peer_identity:
        Bob's secret ``id_B`` (pre-shared with Alice so she can verify him).
    rng:
        Seeded generator for all of Alice's random choices.
    """

    identity: Identity
    peer_identity: Identity
    rng: object = None
    cover_operations: dict[int, str] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.rng = as_rng(self.rng)

    # -- encoding ------------------------------------------------------------------------
    def message_pauli_plan(
        self, message_labels: tuple[str, ...], positions: tuple[int, ...]
    ) -> dict[int, str]:
        """Assign each message Pauli label to a message-pair position (in order)."""
        if len(message_labels) != len(positions):
            raise ProtocolError(
                f"{len(message_labels)} labels cannot be placed on {len(positions)} pairs"
            )
        return dict(zip(positions, message_labels))

    def identity_pauli_plan(self, positions: tuple[int, ...]) -> dict[int, str]:
        """Assign Alice's identity chunks to the ``C_A`` positions (in order)."""
        chunks = self.identity.chunks()
        if len(chunks) != len(positions):
            raise ProtocolError(
                f"identity spans {len(chunks)} pairs but {len(positions)} positions were given"
            )
        return {
            position: encode_bits_to_pauli(chunk)
            for position, chunk in zip(positions, chunks)
        }

    def cover_plan(self, positions: tuple[int, ...]) -> dict[int, str]:
        """Draw and remember random cover operations for the ``D_A`` positions."""
        labels = random_cover_operations(len(positions), rng=self.rng)
        plan = dict(zip(positions, labels))
        self.cover_operations = dict(plan)
        return plan

    @staticmethod
    def apply_plan(
        pairs: dict[int, DensityMatrix], plan: dict[int, str]
    ) -> dict[int, DensityMatrix]:
        """Apply a position → Pauli plan to Alice's halves of the given pairs."""
        updated = dict(pairs)
        for position, label in plan.items():
            if position not in updated:
                raise ProtocolError(f"no pair at position {position}")
            updated[position] = _apply_pauli(updated[position], label, ALICE_QUBIT)
        return updated

    # -- verification of Bob --------------------------------------------------------------
    def expected_authentication_outcomes(
        self, positions: tuple[int, ...]
    ) -> dict[int, BellState]:
        """Bell states Alice expects Bob to announce for the ``D_A`` pairs.

        Determined by her cover operation on each pair and Bob's identity
        chunk on the partner qubit.
        """
        chunks = self.peer_identity.chunks()
        if len(chunks) != len(positions):
            raise ProtocolError("peer identity length does not match the D_A set")
        expected: dict[int, BellState] = {}
        for position, chunk in zip(positions, chunks):
            cover = self.cover_operations.get(position)
            if cover is None:
                raise ProtocolError(
                    f"no cover operation was recorded for position {position}"
                )
            expected[position] = expected_bell_state(cover, encode_bits_to_pauli(chunk))
        return expected

    def verify_bob(
        self, announced: dict[int, BellState], positions: tuple[int, ...]
    ) -> float:
        """Fraction of ``D_A`` pairs whose announced outcome disagrees with the expectation."""
        expected = self.expected_authentication_outcomes(positions)
        if set(announced) != set(expected):
            raise ProtocolError("announced outcomes do not cover the D_A positions")
        mismatches = sum(
            1 for position in positions if announced[position] is not expected[position]
        )
        return mismatches / len(positions)


@dataclass
class Bob:
    """The receiver: encodes his identity, measures Bell states, decodes the message.

    ``memoize`` (default True) caches the Bell-outcome probability vector per
    distinct pair state during :meth:`bell_measure`: the pairs of one session
    carry only a handful of distinct states (four Pauli encodings of one
    channel output), so the Bell-basis projections collapse to a few
    evaluations.  Sampling consumes the same single draw per pair from the
    same floats, so outcomes are bit-identical to the unmemoised reference
    path (``memoize=False``).

    ``shared_probability_cache`` optionally replaces the per-call cache with
    an externally owned dict so a batch of sessions (``run_session_batch``,
    ``BatchBackend``) computes each distinct state's Bell-outcome
    probability vector once per batch.  The key — the state's matrix bytes —
    is configuration-independent, so sharing across sessions with different
    identities or seeds is exact.
    """

    identity: Identity
    peer_identity: Identity
    rng: object = None
    memoize: bool = True
    shared_probability_cache: "dict[bytes, object] | None" = None

    def __post_init__(self):
        self.rng = as_rng(self.rng)

    # -- identity encoding -------------------------------------------------------------------
    def identity_pauli_plan(self, positions: tuple[int, ...]) -> dict[int, str]:
        """Assign Bob's identity chunks to the ``D_B`` (partner of ``D_A``) positions."""
        chunks = self.identity.chunks()
        if len(chunks) != len(positions):
            raise ProtocolError(
                f"identity spans {len(chunks)} pairs but {len(positions)} positions were given"
            )
        return {
            position: encode_bits_to_pauli(chunk)
            for position, chunk in zip(positions, chunks)
        }

    @staticmethod
    def apply_plan(
        pairs: dict[int, DensityMatrix], plan: dict[int, str]
    ) -> dict[int, DensityMatrix]:
        """Apply a position → Pauli plan to Bob's halves of the given pairs."""
        updated = dict(pairs)
        for position, label in plan.items():
            if position not in updated:
                raise ProtocolError(f"no pair at position {position}")
            updated[position] = _apply_pauli(updated[position], label, BOB_QUBIT)
        return updated

    # -- measurements ----------------------------------------------------------------------------
    def bell_measure(
        self, pairs: dict[int, DensityMatrix], positions: tuple[int, ...]
    ) -> dict[int, BellState]:
        """Bell-state measurement of the listed pairs (one shot per pair)."""
        outcomes: dict[int, BellState] = {}
        probability_cache: dict[bytes, object] | None = None
        if self.memoize:
            probability_cache = (
                self.shared_probability_cache
                if self.shared_probability_cache is not None
                else {}
            )
        for position in positions:
            if position not in pairs:
                raise ProtocolError(f"no pair at position {position}")
            state = pairs[position]
            if probability_cache is None:
                result = bell_measurement(state, [ALICE_QUBIT, BOB_QUBIT], rng=self.rng)
            else:
                key = state.matrix.tobytes()
                probabilities = probability_cache.get(key)
                if probabilities is None:
                    probabilities = bell_basis_probability_vector(
                        state, [ALICE_QUBIT, BOB_QUBIT]
                    )
                    probability_cache[key] = probabilities
                result = sample_bell_outcome(probabilities, rng=self.rng)
            outcomes[position] = result.bell_state
        return outcomes

    # -- verification of Alice ----------------------------------------------------------------------
    def verify_alice(
        self, outcomes: dict[int, BellState], positions: tuple[int, ...]
    ) -> float:
        """Fraction of ``C_A`` pairs whose Bell outcome disagrees with ``id_A``."""
        chunks = self.peer_identity.chunks()
        if len(chunks) != len(positions):
            raise ProtocolError("peer identity length does not match the C_A set")
        mismatches = 0
        for position, chunk in zip(positions, chunks):
            if position not in outcomes:
                raise ProtocolError(f"no measurement outcome for position {position}")
            expected = expected_bell_state(encode_bits_to_pauli(chunk), "I")
            if outcomes[position] is not expected:
                mismatches += 1
        return mismatches / len(positions)

    # -- decoding -------------------------------------------------------------------------------------
    @staticmethod
    def decode_message_bits(
        outcomes: dict[int, BellState], positions: tuple[int, ...]
    ) -> Bits:
        """Decode the combined bit string ``m'`` from Bell outcomes at *positions* (in order)."""
        decoded: list[int] = []
        for position in positions:
            if position not in outcomes:
                raise ProtocolError(f"no measurement outcome for position {position}")
            decoded.extend(decode_bell_state_to_bits(outcomes[position]))
        return tuple(decoded)

"""Per-pair measurements without memos: the oracle the cached statistics are checked against.

The protocol looks its CHSH branch statistics and Bell-outcome probability
vectors up in module-level tables keyed by pair content.  This module measures
every pair afresh instead — :func:`measure_observable` on Alice's then Bob's
qubit for the DI security check, the four Bell projections for Bob's Bell
measurement — consuming the same RNG draws the cached paths do.  Written for
clarity rather than speed.
"""

from __future__ import annotations

from repro.exceptions import ProtocolError
from repro.protocol.chsh import DISecurityCheck
from repro.protocol.parties import ALICE_QUBIT, BOB_QUBIT, Bob
from repro.quantum.measurement import (
    BELL_OUTCOME_ORDER,
    _bell_basis_probabilities,
    equatorial_observable,
    measure_observable,
)


def reference_measure_pair(settings, pair, alice_setting, bob_setting, generator):
    """Alice's then Bob's ±1 outcome, each drawn by a fresh observable measurement."""
    alice_observable = equatorial_observable(settings.alice_angles[alice_setting])
    bob_observable = equatorial_observable(
        settings.bob_angles[bob_setting - 1], conjugate=settings.conjugate_bob
    )
    alice_outcome, post = measure_observable(pair, alice_observable, [0], rng=generator)
    bob_outcome, _ = measure_observable(post, bob_observable, [1], rng=generator)
    return alice_outcome, bob_outcome


def reference_bell_measure(pairs, positions, rng):
    """Bell outcomes of *positions*, projecting every pair onto the Bell basis afresh."""
    outcomes = {}
    for position in positions:
        if position not in pairs:
            raise ProtocolError(f"no pair at position {position}")
        probabilities = _bell_basis_probabilities(pairs[position], [ALICE_QUBIT, BOB_QUBIT])
        outcomes[position] = BELL_OUTCOME_ORDER[int(rng.choice(4, p=probabilities))]
    return outcomes


class ReferenceCheck(DISecurityCheck):
    """:class:`DISecurityCheck` measuring each pair with the oracle."""

    def _sample_pair(self, pair, alice_setting, bob_setting, generator):
        return reference_measure_pair(
            self.settings, pair, alice_setting, bob_setting, generator
        )


class ReferenceBob(Bob):
    """:class:`Bob` Bell-measuring each pair with the oracle."""

    def bell_measure(self, pairs, positions):
        return reference_bell_measure(pairs, positions, self.rng)

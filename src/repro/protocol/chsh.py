"""Device-independent security checks via sampled CHSH estimation.

Both DI security-check rounds of the protocol estimate the CHSH polynomial

    ``S = <a1 b1> + <a1 b2> + <a2 b1> − <a2 b2>``

from measurements on a random subset of ``d`` EPR pairs.  In round 1 Alice and
Bob each measure their own half with independently chosen random settings; in
round 2 Bob holds both halves (Alice has already transmitted her qubits) and
measures both himself.  Either way the estimator is the same: accumulate
coincidence counts per setting pair, form the empirical correlations and the
CHSH value, and compare against the abort threshold (classically ``S ≤ 2``;
the honest value is ``2√2 − ε``).

The measurement settings follow the paper: Alice's angles ``A0=π/4, A1=0,
A2=π/2`` and Bob's ``B1=π/4, B2=−π/4``, with the phase convention discussed in
DESIGN.md so that the ideal value is exactly ``2√2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.exceptions import NonPhysicalStateError, ProtocolError
from repro.quantum.bell import CLASSICAL_CHSH_BOUND, TSIRELSON_BOUND
from repro.quantum.density import DensityMatrix
from repro.quantum.measurement import (
    equatorial_observable,
    measure_observable,
    observable_branches,
    observable_probability,
)
from repro.quantum.states import Statevector
from repro.utils.rng import as_rng

__all__ = ["CHSHSettings", "CHSHEstimate", "DISecurityCheck"]


@dataclass(frozen=True)
class CHSHSettings:
    """Measurement settings for the DI security check.

    Attributes
    ----------
    alice_angles:
        Alice's three possible angles ``(A0, A1, A2)``.  ``A0`` overlaps with
        Bob's ``B1`` and is not used in the CHSH combination; rounds where it
        is drawn are discarded from the estimate (as in E91-style protocols).
    bob_angles:
        Bob's two possible angles ``(B1, B2)``.
    conjugate_bob:
        Phase convention for Bob's observable (see DESIGN.md); the default
        True makes the paper's angles reach ``2√2`` on ``|Φ+⟩``.
    use_a0:
        If True, Alice draws uniformly from all three angles (paper's
        description); if False she draws only from the two CHSH angles, which
        uses the check pairs more efficiently.
    threshold:
        Abort threshold for the estimated CHSH value (classical bound 2).
    """

    alice_angles: tuple[float, float, float] = (math.pi / 4, 0.0, math.pi / 2)
    bob_angles: tuple[float, float] = (math.pi / 4, -math.pi / 4)
    conjugate_bob: bool = True
    use_a0: bool = False
    threshold: float = CLASSICAL_CHSH_BOUND

    def __post_init__(self):
        if len(self.alice_angles) != 3:
            raise ProtocolError("alice_angles must contain exactly three angles (A0, A1, A2)")
        if len(self.bob_angles) != 2:
            raise ProtocolError("bob_angles must contain exactly two angles (B1, B2)")
        if not 0 < self.threshold < TSIRELSON_BOUND:
            raise ProtocolError(
                f"threshold must lie in (0, 2√2), got {self.threshold}"
            )

    @property
    def chsh_alice_angles(self) -> tuple[float, float]:
        """The two Alice angles (A1, A2) entering the CHSH combination."""
        return self.alice_angles[1], self.alice_angles[2]


@dataclass
class CHSHEstimate:
    """Result of one sampled CHSH estimation round.

    Attributes
    ----------
    value:
        The estimated CHSH polynomial ``S``.
    correlations:
        Empirical ``E(A_j, B_k)`` per setting pair ``(j, k)`` with j, k in {1, 2}.
    counts:
        Number of samples per setting pair.
    num_pairs:
        Total number of check pairs consumed (including discarded ``A0`` rounds).
    threshold:
        The abort threshold the estimate was compared against.
    """

    value: float
    correlations: dict[tuple[int, int], float]
    counts: dict[tuple[int, int], int]
    num_pairs: int
    threshold: float = CLASSICAL_CHSH_BOUND

    @property
    def epsilon(self) -> float:
        """Deviation from the ideal value: ``ε = 2√2 − S``."""
        return TSIRELSON_BOUND - self.value

    def passed(self) -> bool:
        """True if the estimate exceeds the abort threshold."""
        return self.value > self.threshold

    def violates_classical_bound(self) -> bool:
        """True if the estimate exceeds the classical CHSH bound of 2."""
        return self.value > CLASSICAL_CHSH_BOUND

    def __repr__(self) -> str:
        return (
            f"CHSHEstimate(value={self.value:.4f}, epsilon={self.epsilon:.4f}, "
            f"num_pairs={self.num_pairs}, passed={self.passed()})"
        )


@dataclass
class DISecurityCheck:
    """Sampled CHSH estimation over a collection of (possibly noisy) EPR pairs.

    Parameters
    ----------
    settings:
        The :class:`CHSHSettings` to use; defaults to the paper's settings.
    memoize:
        If True (default), branch statistics — Alice's outcome probability
        and Bob's conditional outcome probabilities — are computed once per
        distinct (pair state, setting pair) and reused.  A protocol session
        measures hundreds of *identical* Bell-pair states, so this
        collapses the dominant per-session cost (an eigendecomposition and
        two projector applications per pair) to a handful of evaluations.
        The cached statistics are produced by the same
        :func:`~repro.quantum.measurement.observable_branches` code the
        reference path runs and the per-pair RNG consumption is unchanged
        (two uniform draws), so memoised estimates are bit-identical to
        ``memoize=False`` — asserted by
        ``tests/protocol/test_memoization_parity.py``.
    shared_branch_cache:
        Optional externally owned cache used instead of the per-call one
        when ``memoize`` is enabled.  A batch of sessions measuring the same
        pair states (``run_session_batch``, ``BatchBackend``) shares one
        dict so the branch statistics are computed once per batch rather
        than once per session; entries are keyed by the full ``(settings,
        alice setting, bob setting, state bytes)`` tuple, so checks with
        different settings can safely share one cache.
    """

    settings: CHSHSettings = field(default_factory=CHSHSettings)
    memoize: bool = True
    shared_branch_cache: "dict[tuple, tuple] | None" = None

    def estimate(
        self,
        pairs: Sequence["Statevector | DensityMatrix"],
        rng=None,
    ) -> CHSHEstimate:
        """Estimate the CHSH value from single-shot measurements on *pairs*.

        Each pair is measured once: a random Alice setting on qubit 0 and a
        random Bob setting on qubit 1 (this models round 1, where the two
        parties measure their own halves, and round 2 equally well, since in
        round 2 Bob simply performs both measurements himself).
        """
        if not pairs:
            raise ProtocolError("the DI security check needs at least one pair")
        generator = as_rng(rng)

        correlation_sums: dict[tuple[int, int], int] = {
            (j, k): 0 for j in (1, 2) for k in (1, 2)
        }
        counts: dict[tuple[int, int], int] = {(j, k): 0 for j in (1, 2) for k in (1, 2)}
        branch_cache: dict[tuple, tuple] | None = None
        if self.memoize:
            branch_cache = (
                self.shared_branch_cache
                if self.shared_branch_cache is not None
                else {}
            )

        for pair in pairs:
            alice_setting = self._draw_alice_setting(generator)
            bob_setting = int(generator.integers(1, 3))
            if branch_cache is None:
                alice_outcome, bob_outcome = self._measure_pair(
                    pair, alice_setting, bob_setting, generator
                )
            else:
                alice_outcome, bob_outcome = self._measure_pair_memoized(
                    pair, alice_setting, bob_setting, generator, branch_cache
                )
            if alice_setting == 0:
                continue  # A0 rounds are not part of the CHSH combination.
            key = (alice_setting, bob_setting)
            correlation_sums[key] += alice_outcome * bob_outcome
            counts[key] += 1

        correlations = {
            key: (correlation_sums[key] / counts[key]) if counts[key] else 0.0
            for key in counts
        }
        value = (
            correlations[(1, 1)]
            + correlations[(1, 2)]
            + correlations[(2, 1)]
            - correlations[(2, 2)]
        )
        return CHSHEstimate(
            value=value,
            correlations=correlations,
            counts=counts,
            num_pairs=len(pairs),
            threshold=self.settings.threshold,
        )

    # -- internals ----------------------------------------------------------------------
    def _draw_alice_setting(self, generator) -> int:
        if self.settings.use_a0:
            return int(generator.integers(0, 3))
        return int(generator.integers(1, 3))

    def _measure_pair(
        self,
        pair: "Statevector | DensityMatrix",
        alice_setting: int,
        bob_setting: int,
        generator,
    ) -> tuple[int, int]:
        if pair.num_qubits != 2:
            raise ProtocolError("security-check pairs must be two-qubit states")
        alice_angle = self.settings.alice_angles[alice_setting]
        bob_angle = self.settings.bob_angles[bob_setting - 1]
        alice_observable = equatorial_observable(alice_angle)
        bob_observable = equatorial_observable(
            bob_angle, conjugate=self.settings.conjugate_bob
        )
        alice_outcome, post = measure_observable(pair, alice_observable, [0], rng=generator)
        bob_outcome, _ = measure_observable(post, bob_observable, [1], rng=generator)
        return alice_outcome, bob_outcome

    @staticmethod
    def _state_key(pair: "Statevector | DensityMatrix") -> tuple:
        if isinstance(pair, DensityMatrix):
            return ("dm", pair.matrix.tobytes())
        return ("sv", pair.vector.tobytes())

    def _measure_pair_memoized(
        self,
        pair: "Statevector | DensityMatrix",
        alice_setting: int,
        bob_setting: int,
        generator,
        branch_cache: dict[tuple, tuple],
    ) -> tuple[int, int]:
        """Measure one pair using per-state cached branch statistics.

        The cache maps ``(settings, alice setting, bob setting, state
        bytes)`` to ``(p_alice_plus, p_bob_plus | alice=+1, p_bob_plus |
        alice=−1)``, computed on first sight by exactly the operations the
        reference ``_measure_pair`` performs — so subsequent pairs sharing
        the state draw from bit-identical floats with the same two uniform
        draws.  The settings component makes the key safe for caches shared
        across checks (``shared_branch_cache``).  ``None`` marks a
        zero-probability branch (only an error if drawn).
        """
        if pair.num_qubits != 2:
            raise ProtocolError("security-check pairs must be two-qubit states")
        key = (self.settings, alice_setting, bob_setting, self._state_key(pair))
        entry = branch_cache.get(key)
        if entry is None:
            alice_observable = equatorial_observable(
                self.settings.alice_angles[alice_setting]
            )
            bob_observable = equatorial_observable(
                self.settings.bob_angles[bob_setting - 1],
                conjugate=self.settings.conjugate_bob,
            )
            p_alice, post_plus, post_minus = observable_branches(
                pair, alice_observable, [0]
            )
            conditionals = [
                None if post is None else observable_probability(post, bob_observable, [1])
                for post in (post_plus, post_minus)
            ]
            entry = (p_alice, conditionals[0], conditionals[1])
            branch_cache[key] = entry

        p_alice, p_bob_plus, p_bob_minus = entry
        alice_outcome = 1 if generator.random() < p_alice else -1
        p_bob = p_bob_plus if alice_outcome == 1 else p_bob_minus
        if p_bob is None:
            raise NonPhysicalStateError(
                "observable measurement hit a zero-probability outcome"
            )
        bob_outcome = 1 if generator.random() < p_bob else -1
        return alice_outcome, bob_outcome

    @staticmethod
    def required_pairs(target_std_error: float = 0.1) -> int:
        """Rule-of-thumb sample size for a target CHSH standard error.

        Each correlation is estimated from roughly ``d/4`` samples with
        per-sample variance at most 1, so
        ``std(S) ≈ sqrt(4 * 4 / d) = 4 / sqrt(d)``.
        """
        if target_std_error <= 0:
            raise ProtocolError("target_std_error must be positive")
        return int(math.ceil((4.0 / target_std_error) ** 2))

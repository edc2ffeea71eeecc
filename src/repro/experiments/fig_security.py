"""Experiment ``fig_security``: detection power across the adversarial scenario grid.

The paper's §IV reports that each of its four attacks *is* detected; this
experiment turns that into the quantitative security analysis the scenario
engine enables:

* a **scenario grid** — parameterised strength sweeps of every channel/source
  strategy (intercept-resend, entangle-measure, man-in-the-middle, source
  tamper) plus the canonical presets (basis-biased, individual,
  late-onset, intermittent, impersonation, composed multi-adversary,
  passive classical) — is fanned through
  :func:`repro.experiments.sweep.run_sweep` with deterministic per-point
  seeds;
* every scenario's sessions yield per-session CHSH scores, which together
  with the honest baseline produce **ROC curves** and AUCs for the DI
  eavesdropping test (:func:`repro.analysis.security.detection_roc`);
* per-scenario detection rates feed the **statistical power analysis**
  (sessions needed before an operator catches Eve with 95 % confidence);
* the strength sweeps map out the **information-leakage versus detection
  trade-off frontier** (:func:`repro.analysis.security.tradeoff_frontier`);
* the configured DI-round size is annotated with **finite-sample CHSH
  confidence bounds** (:func:`repro.analysis.security.chsh_epsilon`).

The default link is the Pauli :class:`~repro.channel.quantum_channel.DepolarizingChannel`;
``channel="eta"`` swaps in the paper's identity-gate chain and
``"noiseless"`` the ideal link.  Every session runs on the protocol's one
memoised pair-state engine whatever the link.  Quick mode (the registry
default) runs the full grid in a few seconds and is seed-deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from repro.analysis.security import (
    RocCurve,
    TradeoffPoint,
    chsh_epsilon,
    chsh_lower_bound,
    detection_roc,
    pairs_for_chsh_epsilon,
    sessions_for_detection,
    tradeoff_frontier,
)
from repro.artifacts.metrics import register_metrics
from repro.attacks.detection import AttackEvaluation, evaluate_attack
from repro.attacks.scenarios import AttackScenario, ScenarioSchedule, get_scenario
from repro.channel.quantum_channel import (
    DepolarizingChannel,
    IdentityChainChannel,
    NoiselessChannel,
)
from repro.exceptions import ExperimentError
from repro.experiments.sweep import parameter_grid, run_sweep
from repro.protocol.config import ProtocolConfig

__all__ = [
    "ScenarioStudyPoint",
    "SecurityStudyResult",
    "run_fig_security",
]

#: Preset scenario names included in the grid alongside the strength sweeps.
DEFAULT_PRESETS = (
    "intercept_resend_breidbart",
    "intercept_resend_individual",
    "intercept_resend_late",
    "mitm_intermittent",
    "impersonate_alice",
    "impersonate_bob",
    "classical_passive",
    "mitm_plus_classical",
    "impersonation_with_intercept",
)

#: Strategies whose strength axis is swept (strength semantics per strategy
#: are documented in :mod:`repro.attacks.scenarios`).
SWEPT_STRATEGIES = (
    "intercept_resend",
    "entangle_measure",
    "man_in_the_middle",
    "source_tamper",
)

#: Strategies for which ``strength`` doubles as Eve's normalised information
#: gain, feeding the leakage/detection trade-off frontier.
_INFORMATION_STRATEGIES = {"intercept_resend", "entangle_measure"}


@dataclass
class ScenarioStudyPoint:
    """Aggregated security statistics for one scenario of the grid."""

    name: str
    label: str
    trials: int
    detections: int
    detection_rate: float
    abort_reasons: dict[str, int]
    mean_chsh_round1: "float | None"
    mean_chsh_round2: "float | None"
    chsh_scores: tuple[float, ...] = field(repr=False, default=())
    roc: "RocCurve | None" = field(repr=False, default=None)
    sessions_for_95_detection: "int | None" = None
    information_gain: "float | None" = None

    def summary(self) -> dict:
        """JSON-friendly summary of the point."""
        return {
            "scenario": self.name,
            "label": self.label,
            "trials": self.trials,
            "detections": self.detections,
            "detection_rate": self.detection_rate,
            "abort_reasons": dict(self.abort_reasons),
            "mean_chsh_round1": self.mean_chsh_round1,
            "mean_chsh_round2": self.mean_chsh_round2,
            "roc": None if self.roc is None else self.roc.summary(),
            "sessions_for_95_detection": self.sessions_for_95_detection,
            "information_gain": self.information_gain,
        }


@dataclass
class SecurityStudyResult:
    """Outcome of the ``fig_security`` scenario-grid study."""

    message: str
    trials: int
    check_pairs: int
    identity_pairs: int
    channel_name: str
    honest_false_alarm_rate: float
    honest_scores: tuple[float, ...] = field(repr=False, default=())
    points: list[ScenarioStudyPoint] = field(default_factory=list)
    frontier: list[TradeoffPoint] = field(default_factory=list)
    chsh_bound: dict = field(default_factory=dict)

    def detection_rates(self) -> dict[str, float]:
        """Detection rate per scenario, in grid order."""
        return {point.name: point.detection_rate for point in self.points}

    def point(self, name: str) -> ScenarioStudyPoint:
        """Look up one scenario's statistics by grid name."""
        for candidate in self.points:
            if candidate.name == name:
                return candidate
        raise ExperimentError(f"no scenario {name!r} in this study")

    def all_full_strength_attacks_detected(self, minimum_rate: float = 0.9) -> bool:
        """True if every active strength-1 sweep point detects ≥ *minimum_rate*.

        The quantitative form of the paper's §IV claim, restricted to the
        full-strength active attacks (passive and sub-critical scenarios are
        *expected* to evade the threshold test).
        """
        full = [point for point in self.points if point.name.endswith("@1")]
        return bool(full) and all(
            point.detection_rate >= minimum_rate for point in full
        )

    def summary(self) -> dict:
        """JSON-friendly summary of the whole study."""
        return {
            "message": self.message,
            "trials": self.trials,
            "check_pairs": self.check_pairs,
            "identity_pairs": self.identity_pairs,
            "channel": self.channel_name,
            "honest_false_alarm_rate": self.honest_false_alarm_rate,
            "points": [point.summary() for point in self.points],
            "frontier": [point.summary() for point in self.frontier],
            "chsh_bound": dict(self.chsh_bound),
        }


def _study_channel(channel: str, noise: float):
    """Resolve the link model swept by the study."""
    if channel == "depolarizing":
        return DepolarizingChannel(noise)
    if channel == "noiseless":
        return NoiselessChannel()
    if channel == "eta":
        return IdentityChainChannel(eta=max(1, int(noise)))
    raise ExperimentError(
        f"unknown channel kind {channel!r}; choose 'depolarizing', "
        "'noiseless' or 'eta'"
    )


def _study_config(
    message_length: int,
    check_pairs: int,
    identity_pairs: int,
    channel: str,
    noise: float,
) -> ProtocolConfig:
    """Base session config of the study."""
    return ProtocolConfig.default(
        message_length=message_length,
        identity_pairs=identity_pairs,
        check_pairs_per_round=check_pairs,
    ).with_channel(_study_channel(channel, noise))


def _scenario_table(
    strengths: tuple[float, ...], presets: tuple[str, ...]
) -> dict[str, ScenarioSchedule]:
    """The grid: strength sweeps of every swept strategy plus named presets."""
    table: dict[str, ScenarioSchedule] = {}
    for strategy in SWEPT_STRATEGIES:
        for strength in strengths:
            scenario = AttackScenario(strategy, strength=float(strength))
            table[f"{strategy}@{strength:g}"] = ScenarioSchedule((scenario,))
    for name in presets:
        table[name] = get_scenario(name)
    return table


def _security_point_worker(
    params: dict,
    seed: int,
    strengths: tuple[float, ...],
    presets: tuple[str, ...],
    trials: int,
    message: str,
    check_pairs: int,
    identity_pairs: int,
    channel: str,
    noise: float,
) -> AttackEvaluation:
    """Evaluate one grid scenario (module-level for process pools).

    The scenario is swept *by name* (sweep axis values must be canonical),
    and resolved here from the deterministic scenario table.
    """
    config = _study_config(len(message), check_pairs, identity_pairs, channel, noise)
    name = params["scenario"]
    if name == "honest":
        factory = None
    else:
        table = _scenario_table(strengths, presets)
        factory = table[name].attack_factory()
    return evaluate_attack(config, factory, message, trials=trials, rng=seed)


def _session_scores(
    evaluation: AttackEvaluation,
    authentication_tolerance: float,
    check_bit_tolerance: float,
) -> tuple[float, ...]:
    """Per-session detector scores for the ROC analysis.

    Each safeguard contributes a normalised *alarm margin* — positive exactly
    when that safeguard would fire: ``(2 − S)/2`` for each observed CHSH
    round, ``error/tolerance − 1`` for the two authentication checks and the
    check-bit comparison.  A session's suspicion is the maximum margin over
    the safeguards it actually reached, and the returned score is its
    *negation* so that lower = more suspicious (the convention of
    :func:`repro.analysis.security.detection_roc`).  Using one unified
    statistic keeps the ROC fair across attack families: channel attacks are
    typically caught by authentication *before* the round-2 CHSH check runs,
    so a CHSH-only score would under-sample precisely the attacked sessions.
    """
    scores = []
    for result in evaluation.results:
        margins = []
        for estimate in (result.chsh_round1, result.chsh_round2):
            if estimate is not None:
                margins.append((2.0 - estimate.value) / 2.0)
        for error, tolerance in (
            (result.bob_authentication_error, authentication_tolerance),
            (result.alice_authentication_error, authentication_tolerance),
            (result.check_bit_error_rate, check_bit_tolerance),
        ):
            if error is not None:
                margins.append(error / tolerance - 1.0)
        if margins:
            scores.append(-max(margins))
    return tuple(scores)


def run_fig_security(
    trials: int = 20,
    check_pairs: int = 128,
    identity_pairs: int = 4,
    message: str = "1011001110001111",
    strengths: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    presets: tuple[str, ...] = DEFAULT_PRESETS,
    channel: str = "depolarizing",
    noise: float = 0.005,
    seed: int = 1201,
    executor: str = "serial",
    max_workers: "int | None" = None,
) -> SecurityStudyResult:
    """Sweep the adversarial scenario grid and aggregate detection-power statistics.

    Every scenario (and the honest baseline) is one sweep point with a
    deterministic derived seed, so the study is bit-identical for any
    *executor* choice.  See the module docstring for what is computed.

    Parameters
    ----------
    trials:
        Protocol sessions per scenario (and for the honest baseline).
    check_pairs, identity_pairs:
        DI-round size ``d`` and identity length ``l`` of every session.
    message:
        The secret message Alice sends in every session.
    strengths:
        Strength axis swept for each strategy in :data:`SWEPT_STRATEGIES`.
    presets:
        Named presets (see :func:`repro.attacks.scenarios.list_scenarios`)
        appended to the grid.
    channel, noise:
        Link model: ``"depolarizing"`` (Pauli — stabilizer-eligible, the
        default), ``"noiseless"``, or ``"eta"`` (the paper's identity chain,
        *noise* = η; runs on the ``auto`` engine).
    seed:
        Master seed of the sweep.
    executor, max_workers:
        Worker pool for the grid (``"serial"``, ``"thread"`` or
        ``"process"``).
    """
    if trials < 1:
        raise ExperimentError("trials must be at least 1")
    strengths = tuple(float(value) for value in strengths)
    for value in strengths:
        if not 0.0 <= value <= 1.0:
            raise ExperimentError("strengths must lie in [0, 1]")
    presets = tuple(presets)

    table = _scenario_table(strengths, presets)
    grid_names = ["honest", *table]
    worker = functools.partial(
        _security_point_worker,
        strengths=strengths,
        presets=presets,
        trials=trials,
        message=message,
        check_pairs=check_pairs,
        identity_pairs=identity_pairs,
        channel=channel,
        noise=noise,
    )
    swept = run_sweep(
        worker,
        parameter_grid(scenario=grid_names),
        base_seed=seed,
        executor=executor,
        max_workers=max_workers,
    )
    evaluations = {
        point.params["scenario"]: evaluation for point, evaluation in swept
    }

    honest = evaluations.pop("honest")
    config = _study_config(len(message), check_pairs, identity_pairs, channel, noise)
    # The scores must mirror the abort rule the sessions actually ran under,
    # so the tolerances come from the session config rather than defaults.
    tolerances = dict(
        authentication_tolerance=config.authentication_tolerance,
        check_bit_tolerance=config.check_bit_tolerance,
    )
    honest_scores = _session_scores(honest, **tolerances)
    result = SecurityStudyResult(
        message=message,
        trials=trials,
        check_pairs=check_pairs,
        identity_pairs=identity_pairs,
        channel_name=config.channel.name,
        honest_false_alarm_rate=honest.detection_rate,
        honest_scores=honest_scores,
        chsh_bound={
            "check_pairs": check_pairs,
            "epsilon_95": chsh_epsilon(check_pairs, 0.95),
            "lower_bound_at_tsirelson_95": chsh_lower_bound(
                2.0 * math.sqrt(2.0), check_pairs, 0.95
            ),
            "pairs_for_epsilon_0.5_95": pairs_for_chsh_epsilon(0.5, 0.95),
        },
    )

    frontier_candidates: list[TradeoffPoint] = []
    for name in table:
        evaluation = evaluations[name]
        schedule = table[name]
        scores = _session_scores(evaluation, **tolerances)
        roc = detection_roc(honest_scores, scores) if scores else None
        information = None
        if "@" in name and name.split("@")[0] in _INFORMATION_STRATEGIES:
            information = float(name.split("@")[1])
            frontier_candidates.append(
                TradeoffPoint(
                    label=name,
                    information_gain=information,
                    detection_rate=evaluation.detection_rate,
                )
            )
        result.points.append(
            ScenarioStudyPoint(
                name=name,
                label=schedule.label,
                trials=evaluation.trials,
                detections=evaluation.detections,
                detection_rate=evaluation.detection_rate,
                abort_reasons=dict(evaluation.abort_reasons),
                mean_chsh_round1=evaluation.mean_chsh_round1,
                mean_chsh_round2=evaluation.mean_chsh_round2,
                chsh_scores=scores,
                roc=roc,
                sessions_for_95_detection=sessions_for_detection(
                    evaluation.detection_rate, 0.95
                ),
                information_gain=information,
            )
        )
    if frontier_candidates:
        result.frontier = tradeoff_frontier(frontier_candidates)
    return result


@register_metrics(SecurityStudyResult)
def security_artifact_metrics(result: SecurityStudyResult) -> dict:
    """Artifact metrics for ``fig_security``: detection grid + CHSH bounds."""
    metrics: dict = {
        "honest_false_alarm_rate": result.honest_false_alarm_rate,
    }
    for point in result.points:
        metrics[f"detect.{point.name}"] = point.detection_rate
        if point.roc is not None:
            metrics[f"auc.{point.name}"] = point.roc.auc
        if point.information_gain is not None:
            metrics[f"info.{point.name}"] = point.information_gain
    if result.chsh_bound:
        metrics["chsh_epsilon_95"] = result.chsh_bound.get("epsilon_95")
    return metrics

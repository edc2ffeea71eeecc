"""Text rendering of experiment results.

Every experiment's result object can be rendered as a compact, paper-style
text block: Fig. 2 as count tables per panel, Fig. 3 as an η/accuracy series,
Table I as the comparison table, the attack simulations as a detection-rate
table.  The CLI (``python -m repro.experiments``) and the benches use these
renderers so the regenerated "rows/series the paper reports" are printed in a
recognisable form.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.attack_simulations import AttackSimulationResult
from repro.experiments.chsh_baseline import CHSHExperimentResult
from repro.experiments.e2e import EndToEndResult
from repro.experiments.fig2_message_counts import Fig2Result
from repro.experiments.fig3_channel_length import Fig3Result
from repro.experiments.fig_load import LoadStudyResult
from repro.experiments.fig_security import SecurityStudyResult
from repro.experiments.fig_sla import SLAStudyResult
from repro.experiments.mitigation_study import MitigationStudyResult
from repro.experiments.table1_comparison import Table1Result
from repro.network.metrics import NetworkResult

__all__ = ["render_result", "render_fig2", "render_fig3", "render_table1_result",
           "render_attacks", "render_chsh", "render_e2e", "render_load",
           "render_network", "render_security", "render_sla"]


def render_fig2(result: Fig2Result) -> str:
    """Render Fig. 2 as one counts table per encoded message."""
    lines = [
        f"Figure 2 — Bob's decoded outcomes ({result.backend_name}, "
        f"η={result.eta}, {result.shots} shots per message)",
    ]
    for panel in result.panels:
        counts = ", ".join(
            f"{outcome}:{panel.counts.get(outcome, 0)}" for outcome in ("00", "01", "10", "11")
        )
        lines.append(
            f"  message {panel.message}:  {counts}   "
            f"accuracy={panel.accuracy:.3f}  fidelity={panel.fidelity_to_ideal:.3f}"
        )
    lines.append(f"  average fidelity = {result.average_fidelity:.3f} (paper: ≥ 0.95)")
    return "\n".join(lines)


def render_fig3(result: Fig3Result) -> str:
    """Render Fig. 3 as an η / duration / accuracy series."""
    lines = [
        f"Figure 3 — accuracy vs channel length ({result.backend_name}, "
        f"{result.shots} shots, messages {','.join(result.messages)})",
        "  eta    duration(us)   accuracy",
    ]
    for point in result.points:
        lines.append(
            f"  {point.eta:>4d}   {point.duration * 1e6:>10.2f}   {point.accuracy:.3f}"
        )
    crossing = result.crossing()
    lines.append(
        "  accuracy < 60% beyond eta ≈ "
        + (f"{crossing:.0f}" if crossing is not None else "not reached in sweep")
        + " (paper: ≈ 700 on hardware)"
    )
    return "\n".join(lines)


def render_table1_result(result: Table1Result) -> str:
    """Render the regenerated Table I (plus functional-run outcomes if present)."""
    lines = ["Table I — DI-QSDC protocol comparison", result.rendered]
    if result.functional is not None:
        lines.append("")
        lines.append("Functional backing runs (same message, same channel):")
        for delivered in result.functional.baseline_results:
            status = "delivered" if delivered.message_delivered_correctly() else (
                "aborted" if delivered.aborted else "delivered with errors"
            )
            lines.append(f"  {delivered.protocol}: {status}")
        proposed = result.functional.proposed_result_summary
        lines.append(
            "  Proposed protocol (UA-DI-QSDC): "
            + ("delivered" if proposed.get("success") else "aborted")
        )
    return "\n".join(lines)


def render_attacks(result: AttackSimulationResult) -> str:
    """Render the attack-simulation detection table."""
    lines = ["Attack simulations — detection statistics", "  scenario                 detection rate"]
    for name, rate in result.detection_rates().items():
        lines.append(f"  {name:<24s} {rate:.2f}")
    if result.impersonation_sweep:
        lines.append("  impersonation sweep (l, empirical, theoretical 1-(1/4)^l):")
        for point in result.impersonation_sweep:
            lines.append(
                f"    l={point.identity_pairs}: {point.empirical_detection_rate:.2f} "
                f"vs {point.theoretical_detection_probability:.3f}"
            )
    if result.leakage is not None:
        lines.append(
            "  classical-channel leakage: excess TV distance = "
            f"{result.leakage.excess_tv_distance:.3f} "
            f"(between {result.leakage.total_variation_distance:.3f} vs within-null "
            f"{result.leakage.within_message_tv_distance:.3f}), "
            f"message outcomes announced = {result.leakage.message_outcomes_announced}"
        )
    return "\n".join(lines)


def render_security(result: SecurityStudyResult) -> str:
    """Render the scenario-grid security study as a detection-power table."""
    lines = [
        "Security analysis — adversarial scenario grid "
        f"({result.channel_name}, "
        f"d={result.check_pairs}, l={result.identity_pairs}, "
        f"{result.trials} sessions/scenario)",
        f"  honest false-alarm rate: {result.honest_false_alarm_rate:.2f}",
        "  scenario                           detect   AUC    n(95%)  info",
    ]
    for point in result.points:
        auc = "  -  " if point.roc is None else f"{point.roc.auc:.3f}"
        sessions = (
            "inf" if point.sessions_for_95_detection is None
            else str(point.sessions_for_95_detection)
        )
        info = "-" if point.information_gain is None else f"{point.information_gain:.2f}"
        lines.append(
            f"  {point.name:<34s} {point.detection_rate:>6.2f}   {auc}  {sessions:>6s}  {info}"
        )
    if result.frontier:
        lines.append("  leakage/detection frontier (Eve-optimal points):")
        for point in result.frontier:
            lines.append(
                f"    {point.label}: info={point.information_gain:.2f} "
                f"detect={point.detection_rate:.2f}"
            )
    bound = result.chsh_bound
    lines.append(
        f"  finite-sample CHSH: ±{bound['epsilon_95']:.2f} at 95% with d={bound['check_pairs']}; "
        f"S ≥ {bound['lower_bound_at_tsirelson_95']:.2f} for an ideal state; "
        f"d={bound['pairs_for_epsilon_0.5_95']} pairs for ±0.5"
    )
    return "\n".join(lines)


def render_chsh(result: CHSHExperimentResult) -> str:
    """Render the CHSH convergence and channel-length study."""
    lines = [
        f"DI security check — sampled CHSH statistics (η={result.eta})",
        "  d      mean S    95% CI            σ(pred)   σ(emp)   pass rate",
    ]
    for point in result.convergence:
        lines.append(
            f"  {point.num_pairs:<6d} {point.mean_value:.3f}   "
            f"[{point.ci_low:.3f}, {point.ci_high:.3f}]   "
            f"{point.predicted_standard_error:.3f}     {point.empirical_standard_deviation:.3f}    "
            f"{point.pass_rate:.2f}"
        )
    lines.append("  analytic CHSH vs η: " + ", ".join(
        f"({eta}, {value:.3f})" for eta, value in result.chsh_vs_eta
    ))
    if result.max_di_channel_length is not None:
        lines.append(
            f"  CHSH reaches the classical bound at η ≈ {result.max_di_channel_length} "
            "(maximum DI-certifiable channel length)"
        )
    return "\n".join(lines)


def render_mitigation(result: MitigationStudyResult) -> str:
    """Render the error-mitigation study as an accuracy comparison table."""
    lines = [
        f"Error mitigation on the η-identity-gate channel ({result.backend_name}, "
        f"{result.shots} shots, scales {result.noise_scales})",
        "  eta    raw      readout-mitigated   ZNE (extrapolated)",
    ]
    for point in result.points:
        lines.append(
            f"  {point.eta:>4d}   {point.raw_accuracy:.3f}        "
            f"{point.readout_mitigated_accuracy:.3f}             {point.zne_accuracy:.3f}"
        )
    lines.append(
        f"  mean gain: readout-mitigation {result.improvement('readout'):+.3f}, "
        f"ZNE {result.improvement('zne'):+.3f}"
    )
    return "\n".join(lines)


def render_e2e(result: EndToEndResult) -> str:
    """Render the end-to-end session statistics."""
    return "\n".join([
        f"End-to-end protocol — {result.num_sessions} sessions × {result.message_length} bits",
        f"  ideal channel delivery rate : {result.ideal_delivery_rate:.2f}",
        f"  η={result.eta} channel delivery rate: {result.noisy_delivery_rate:.2f}",
        f"  mean CHSH (round 1)         : {result.mean_chsh_round1:.3f}",
        f"  mean noisy message BER      : {result.mean_noisy_message_error:.4f}",
    ])


def render_network(result: NetworkResult) -> str:
    """Render a network simulation as an operator-style status block."""

    def fmt(value: "float | None", pattern: str = "{:.4f}") -> str:
        return "n/a" if value is None else pattern.format(value)

    lines = [
        f"Network simulation — {result.topology_name} "
        f"({result.num_nodes} nodes, {result.num_links} links, "
        f"routing={result.routing_policy})",
        f"  sessions: {result.num_sessions} total — "
        f"{result.delivered_count} delivered "
        f"({result.count('delivered_with_errors')} with bit errors), "
        f"{result.aborted_count} aborted, {result.rejected_count} rejected",
        f"  throughput : {result.throughput_sessions:.1f} sessions/s, "
        f"{result.throughput_bits:.0f} bits/s (simulated time "
        f"{result.sim_time:.4f} s)",
        f"  latency    : mean {fmt(result.mean_latency)} s "
        f"(admission wait {fmt(result.mean_wait)} s)",
        f"  abort rate : {result.abort_rate:.2f} of admitted   "
        f"rejection rate: {result.rejection_rate:.2f} of offered",
        f"  quality    : mean QBER {fmt(result.mean_qber, '{:.3f}')}, "
        f"mean CHSH {fmt(result.mean_chsh, '{:.3f}')}, "
        f"mean route length {fmt(result.mean_hops, '{:.2f}')} hops",
    ]
    reasons = result.abort_reasons()
    if reasons:
        rendered = ", ".join(f"{name}:{count}" for name, count in sorted(reasons.items()))
        lines.append(f"  abort reasons: {rendered}")
    busiest = sorted(
        result.link_utilisation().items(), key=lambda item: (-item[1], item[0])
    )[:5]
    if busiest:
        lines.append(
            "  busiest links: "
            + ", ".join(f"{a}—{b} ({count})" for (a, b), count in busiest)
        )
    return "\n".join(lines)


def render_load(result: LoadStudyResult) -> str:
    """Render the load study as one throughput/latency row per scenario."""
    lines = [
        f"Sustained-load study — {result.topology_name} "
        f"({result.num_nodes} nodes, {result.workers} workers, "
        f"{result.messages_per_scenario} msgs/scenario)",
        f"  capacity ≈ {result.service_capacity:.0f} msgs/s "
        f"(mean route {result.mean_hops:.2f} hops); calibrated abort "
        f"probability {result.calibration['abort_probability']:.2f} "
        f"from {result.calibration['sends']} live sends",
        "  scenario          thruput   p50      p99      delivered  dropped (rej/shed/exp)",
    ]
    for name, scenario in result.scenarios:
        stats = scenario.latency_percentiles()
        lines.append(
            f"  {name:<16}  {scenario.throughput:>7.1f}/s  "
            f"{stats['p50'] * 1e3:>6.2f}ms {stats['p99'] * 1e3:>6.2f}ms  "
            f"{scenario.delivered:>9}  {scenario.dropped:>6} "
            f"({scenario.rejected}/{scenario.shed}/{scenario.expired})"
            + ("  [interrupted]" if scenario.interrupted else "")
        )
    return "\n".join(lines)


def render_sla(result: SLAStudyResult) -> str:
    """Render the SLA sweep: one goodput/latency row per (profile, load)."""
    lines = [
        f"SLA study — {result.topology_name} ({result.num_nodes} nodes, "
        f"{result.num_links} links, {result.num_sessions} sessions/point, "
        f"capacity ≈ {result.base_rate:.0f} sessions/s)",
        "  QoS weights: "
        + ", ".join(f"{name}={weight:g}" for name, weight in sorted(result.qos_weights.items())),
        "  profile        load  goodput    delivered  lost (abrt/rej)  reroutes  ctl p95    bulk p95",
    ]
    for point in result.points:
        network = point.result
        percentiles = network.class_latency_percentiles()

        def p95(name: str) -> str:
            entry = percentiles.get(name)
            return "n/a" if entry is None else f"{entry['p95'] * 1e3:.2f}ms"

        lines.append(
            f"  {point.profile:<13} {point.load:>4.1f}  "
            f"{point.goodput_bits:>7.0f}b/s {network.delivered_count:>9}  "
            f"{network.aborted_count:>5}/{network.rejected_count:<8}  "
            f"{network.reroute_count:>8}  {p95('control'):>8}  {p95('bulk'):>8}"
        )
    for profile in result.profiles:
        lines.append(f"  {profile}: goodput knee at load {result.goodput_knee(profile):g}")
    return "\n".join(lines)


_RENDERERS = {
    Fig2Result: render_fig2,
    Fig3Result: render_fig3,
    Table1Result: render_table1_result,
    AttackSimulationResult: render_attacks,
    CHSHExperimentResult: render_chsh,
    EndToEndResult: render_e2e,
    MitigationStudyResult: render_mitigation,
    NetworkResult: render_network,
    SecurityStudyResult: render_security,
    LoadStudyResult: render_load,
    SLAStudyResult: render_sla,
}


def render_result(result: Any) -> str:
    """Render any known experiment result; fall back to ``repr`` otherwise."""
    for result_type, renderer in _RENDERERS.items():
        if isinstance(result, result_type):
            return renderer(result)
    if isinstance(result, list) and result and hasattr(result[0], "identity_pairs"):
        lines = ["Impersonation detection sweep (l, empirical, theoretical):"]
        for point in result:
            lines.append(
                f"  l={point.identity_pairs}: {point.empirical_detection_rate:.2f} vs "
                f"{point.theoretical_detection_probability:.3f}"
            )
        return "\n".join(lines)
    if hasattr(result, "total_variation_distance"):
        return (
            "Information leakage: excess TV distance = "
            f"{result.excess_tv_distance:.3f} (between "
            f"{result.total_variation_distance:.3f}, within-null "
            f"{result.within_message_tv_distance:.3f}), "
            f"MI upper bound = {result.mutual_information_upper_bound:.3f} bits, "
            f"message outcomes announced = {result.message_outcomes_announced}"
        )
    return repr(result)

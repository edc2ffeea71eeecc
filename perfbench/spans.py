"""The layer wrappers of the traced run, recorded through ``repro.telemetry``.

The traced run measures the program from the outside: :func:`install`
replaces public entry points of each layer (``api``, ``protocol``,
``channel``, ``network``, ``attacks``, ``device``, ``quantum``,
``mitigation``, ``experiments``) with thin wrappers that open a
``telemetry.span(name, "perfbench")``, and :func:`uninstall` puts the
originals back.  Nothing under ``src/`` changes; untraced runs never install
the wrappers at all.

The run opens ``telemetry.capture()`` around each traced operation, so the
repository's own tracer supplies span ids, parenting (spans opened on the
delivery engine's worker threads attach to the trace root) and the
in-memory span list.  The library's own spans (``service.send``,
``phase.*``, ``network.hop``, ...) land in the same document;
:func:`layer_totals` reads only the ``perfbench`` spans, parenting each to
its nearest ``perfbench`` ancestor, so a layer's self time is its span
minus its child layer spans.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from typing import Any, Callable

__all__ = ["CATEGORY", "install", "uninstall", "layer_totals"]

CATEGORY = "perfbench"


def _span(fn: Callable, name: "str | Callable", observe: "Callable | None") -> Callable:
    from repro import telemetry

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with telemetry.span(name if isinstance(name, str) else name(args), CATEGORY) as span:
            result = fn(*args, **kwargs)
            if observe is not None:
                span.attributes.update(observe(args, kwargs, result))
        return result

    return wrapper


def _instruction_count(circuits: Any) -> int:
    """Instruction applications in *circuits* (gate repetitions one by one)."""
    return sum(
        instruction.repetitions for circuit in circuits for instruction in circuit.instructions
    )


def _aborted(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"aborted": not result.success}


def _dm_run(args: tuple, kwargs: dict, result: Any) -> dict:
    circuit = args[1] if len(args) > 1 else kwargs["circuit"]
    return {"instructions": _instruction_count([circuit])}


def _dm_run_batch(args: tuple, kwargs: dict, result: Any) -> dict:
    circuits = args[1] if len(args) > 1 else kwargs["circuits"]
    return {"instructions": _instruction_count(circuits)}


def _targets() -> list[tuple[Any, str, Any, "Callable | None"]]:
    """``(owner, attribute, span name, observe)`` of every wrapped entry point.

    A span name may be a function of the call's arguments.
    ``observe(args, kwargs, result)`` returns attributes for the span, to
    record work the call's arguments or result describe.
    """
    from repro.api.service import MessagingService
    from repro.attacks.intercept_resend import InterceptResendAttack
    from repro.channel.memory import QuantumMemory
    from repro.channel.quantum_channel import QuantumChannel
    from repro.device.backend import NoisyBackend
    from repro.experiments.registry import Experiment
    from repro.mitigation.readout import ReadoutMitigator
    from repro.mitigation.zne import ZeroNoiseExtrapolator
    from repro.network import scheduler as scheduler_module
    from repro.network.routing import RoutingTable
    from repro.protocol.chsh import DISecurityCheck
    from repro.protocol.parties import Alice, Bob
    from repro.protocol.runner import UADIQSDCProtocol
    from repro.protocol.source import EntanglementSource
    from repro.quantum.simulator import DensityMatrixSimulator
    from repro.quantum.stabilizer import StabilizerSimulator
    from repro.quantum.tableau_batch import BatchedStabilizerSimulator

    return [
        (Experiment, "run", lambda args: f"experiments.{args[0].experiment_id}", None),
        (MessagingService, "send", "api.send", None),
        (UADIQSDCProtocol, "run", "protocol.session", _aborted),
        (DISecurityCheck, "estimate", "protocol.chsh", None),
        (Alice, "apply_plan", "protocol.encode", None),
        (Bob, "apply_plan", "protocol.encode", None),
        (Bob, "bell_measure", "protocol.bell_measure", None),
        (EntanglementSource, "emit_many", "protocol.source", None),
        (QuantumChannel, "transmit_batch", "channel.transmit", None),
        (QuantumMemory, "retrieve", "channel.memory", None),
        (scheduler_module.NetworkScheduler, "run", "network.run", None),
        (RoutingTable, "route", "network.route", None),
        # The scheduler calls run_session through its own module namespace.
        (scheduler_module, "run_session", "network.session", None),
        (InterceptResendAttack, "intercept_transmission", "attacks.intercept", None),
        (NoisyBackend, "run", "device.run", None),
        (NoisyBackend, "run_batch", "device.run_batch", None),
        (DensityMatrixSimulator, "run", "quantum.dm_run", _dm_run),
        (DensityMatrixSimulator, "run_batch", "quantum.dm_run_batch", _dm_run_batch),
        (StabilizerSimulator, "run", "quantum.stabilizer", None),
        (StabilizerSimulator, "run_batch", "quantum.stabilizer", None),
        (BatchedStabilizerSimulator, "run", "quantum.stabilizer_batched", None),
        (BatchedStabilizerSimulator, "run_batch", "quantum.stabilizer_batched", None),
        (ReadoutMitigator, "from_noise_model", "mitigation.readout", None),
        (ReadoutMitigator, "apply", "mitigation.readout", None),
        (ZeroNoiseExtrapolator, "extrapolate", "mitigation.zne", None),
    ]


def install() -> list[tuple[Any, str, Any]]:
    """Wrap every layer entry point; returns what :func:`uninstall` restores."""
    saved = []
    for owner, attribute, name, observe in _targets():
        raw = inspect.getattr_static(owner, attribute)
        descriptor = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if descriptor is not None else raw
        wrapped = _span(fn, name, observe)
        setattr(owner, attribute, descriptor(wrapped) if descriptor is not None else wrapped)
        saved.append((owner, attribute, raw))
    return saved


def uninstall(saved: list[tuple[Any, str, Any]]) -> None:
    """Put back the originals :func:`install` replaced."""
    for owner, attribute, raw in reversed(saved):
        setattr(owner, attribute, raw)


def layer_totals(document: Any) -> dict[str, Any]:
    """Per layer span name: ``calls``, total ``ms`` and ``self_ms``; plus trace totals.

    Each ``perfbench`` span gets attributes ``layer_parent`` (its nearest
    ``perfbench`` ancestor, or None) and ``run`` (the outermost one: every
    span of one request or one operation shares it), which the written
    trace keeps.  ``root_s`` is the time covered by outermost layer spans
    (summed over threads); ``instructions`` counts those handed to the
    density simulator, where a ``run`` inside ``run_batch`` (its fallback
    for wide circuits) was already counted by the batch.
    """
    by_id = {span.span_id: span for span in document.spans}
    ours = [span for span in document.spans if span.category == CATEGORY]
    ids = {span.span_id for span in ours}

    def layer_parent(span: Any) -> "int | None":
        parent = span.parent_id
        while parent is not None and parent not in ids:
            parent = by_id[parent].parent_id if parent in by_id else None
        return parent

    parents = {span.span_id: layer_parent(span) for span in ours}
    child_time: dict[int, float] = defaultdict(float)
    for span in ours:
        if parents[span.span_id] is not None:
            child_time[parents[span.span_id]] += span.duration
    totals: dict[str, Any] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    root_s, aborts, instructions = 0.0, 0, 0
    for span in ours:
        parent = parents[span.span_id]
        run = span.span_id
        while parents[run] is not None:
            run = parents[run]
        span.attributes.update(layer_parent=parent, run=run)
        entry = totals[span.name]
        entry["calls"] += 1
        entry["ms"] += span.duration * 1e3
        entry["self_ms"] += (span.duration - child_time[span.span_id]) * 1e3
        aborts += bool(span.attributes.get("aborted"))
        if span.name == "quantum.dm_run_batch" or (
            span.name == "quantum.dm_run"
            and (parent is None or by_id[parent].name != "quantum.dm_run_batch")
        ):
            instructions += span.attributes["instructions"]
        if parent is None:
            root_s += span.duration
    return {
        "layers": dict(totals),
        "spans": len(ours),
        "root_s": root_s,
        "aborts": aborts,
        "instructions": instructions,
    }

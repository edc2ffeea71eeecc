"""The benchmark's three workloads: inputs from a seed, one operation, checks.

Every workload draws its inputs (payloads, arrival schedules, traffic,
experiment seeds) from the ``--seed`` given to ``run.py`` and hands the
program only those generated inputs.  Each workload exposes

``setup()``
    the imports and construction a user pays before the first request —
    the unit ``setup_s`` times in a fresh interpreter;
``inputs(seed, seconds)``
    the seeded inputs;
``operation(state, inputs, index)``
    one unit of user-visible work, returning an :class:`Outcome`;
``CYCLE``
    how many operations use distinct inputs (operation ``i`` reruns the
    inputs of operation ``i - CYCLE``), the fewest a run makes;
``REPEATS``
    whether a run repeats operations until its time is up (an open loop
    instead spreads one operation's arrivals over the whole time).

Why these three (see ``README.md`` for the metric map):

* ``messaging`` — independent users sending short texts through the
  README quickstart path (``DeliveryEngine`` over ``MessagingService``) in
  an open loop; its time is in ``protocol``/``channel`` plus ``api``
  retransmissions and ``runtime`` queueing, and it calls no simulator.
* ``network_grid`` — the operator's ``NetworkScheduler.run`` on a 4×4 relay
  grid with dephasing memories and a compromised relay; the only workload
  that exercises ``network`` routing/reservation and ``attacks`` hooks, and
  it drives ``protocol`` with short, often-aborting per-hop sessions.
* ``figures`` — the researcher regenerating the hardware-emulation figures
  (``fig2``, ``fig3``, ``mitigation`` quick runs); it lives in ``device``,
  ``quantum`` and ``mitigation`` and bypasses ``api``/``protocol``/``network``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["Outcome", "WORKLOADS"]


@dataclass
class Outcome:
    """What one operation produced: timings, counts, verdict and a digest.

    ``attempted``/``failed`` count the operation's units of work (sends,
    sessions, experiments); ``failed`` is work the program did not complete
    correctly (an exception, an admission drop, a wrong payload, a broken
    session account, a failed shape check).  ``succeeded`` counts units with
    the outcome a user wants (payload delivered, session delivered, figure
    passing its checks); protocol aborts are correct outcomes that are not
    successes.  ``busy`` is the time in seconds the program spent on the
    operation's work: the summed engine service time for an open loop, the
    wall time otherwise.  ``latencies`` are the per-unit latencies in
    seconds the workload reports (for an open loop, due time to
    completion).  ``reports``
    holds per-unit result digests where a workload spot-checks them.
    ``host_factor`` is how many times slower than the reference speed the
    host ran during the operation; ``run.py`` sets it (see ``hostspeed.py``).
    """

    wall: float
    busy: float
    attempted: int
    succeeded: int
    failed: int
    problems: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    digest: str = ""
    layer: dict[str, float] = field(default_factory=dict)
    reports: list[str] = field(default_factory=list)
    host_factor: float = 1.0


def _digest(payload: Any) -> str:
    encoded = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def percentile(values: "list[float]", q: float, halfwidth: float = 0.05) -> float:
    """Smoothed percentile (``q`` in [0, 1]) of *values*; 0.0 when empty.

    The mean of the order statistics ranked within ``±halfwidth`` of ``q``
    (at least one).  Send latencies cluster at whole numbers of fragment
    attempts, so a single order statistic jumps between clusters when
    timing shifts a rank or two; the window moves smoothly instead.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    count = len(ordered)
    low = min(count - 1, max(0, int(np.floor((q - halfwidth) * count))))
    high = min(count, max(low + 1, int(np.ceil((q + halfwidth) * count))))
    return float(np.mean(ordered[low:high]))


# -- messaging ---------------------------------------------------------------------------
class Messaging:
    """Open-loop Poisson arrivals into ``DeliveryEngine(paper_default, 2 workers)``.

    The offered rate is a constant at most a quarter of the engine's
    capacity on this payload mix (12 to 25 sends per second of engine
    service time on a 2-core x86 VM, by host speed; the two workers contend
    for the interpreter lock, and one worker alone is as fast).  The queue
    stays short, so latency is mostly service time and host-speed changes
    are amplified little.

    The requests come from one trace drawn from :data:`TRACE_SEED`: arrival
    times of a Poisson process conditioned on its count (``RATE × seconds``
    sorted uniform times), and for each request a payload of one of the
    four sizes, drawn uniformly, its text, and its protocol seed.  The workload seed picks
    where in that trace the run starts: the run replays the trace rotated
    by ``seed mod count`` requests, so each request keeps its payload,
    protocol seed and gap to the next arrival.  A run holds only 90
    requests, and with a trace drawn afresh per seed (at 5/s) the p90
    ranged from 174 to 330 ms over nine seeds: which sends need
    retransmission, and where the bursts fall, set the tail.  Rotation keeps the requests and
    their burst structure, and changes the order users arrive in.
    """

    name = "messaging"
    CYCLE = 1
    REPEATS = False
    RATE = 3.0
    TRACE_SEED = 0
    PAYLOAD_BYTES = (8, 16, 24, 48)
    WORKERS = 2
    SPOT_CHECKS = 3

    @staticmethod
    def config():
        from repro import ServiceConfig

        return ServiceConfig.paper_default().with_executor("serial")

    def setup(self) -> Any:
        from repro.runtime import DeliveryEngine

        config = self.config()
        DeliveryEngine(config, max_workers=self.WORKERS).close()
        return config

    def inputs(self, seed: int, seconds: float) -> dict[str, Any]:
        trace = _rng(self.TRACE_SEED, 1)
        count = max(1, int(round(self.RATE * seconds)))
        gaps = np.diff(np.sort(trace.uniform(0.0, seconds, count)), prepend=0.0)
        sizes = trace.choice(self.PAYLOAD_BYTES, count)
        alphabet = np.array(list("abcdefghijklmnopqrstuvwxyz "))
        payloads = ["".join(trace.choice(alphabet, int(size))) for size in sizes]
        seeds = [int(value) for value in trace.integers(0, 2**31 - 1, count)]
        order = np.roll(np.arange(count), -(int(seed) % count))
        return {
            "due": [float(t) for t in np.cumsum(gaps[order])],
            "payloads": [payloads[i] for i in order],
            "seeds": [seeds[i] for i in order],
        }

    def operation(self, config: Any, inputs: dict[str, Any], index: int = 0) -> Outcome:
        from repro.runtime import DeliveryEngine

        engine = DeliveryEngine(config, max_workers=self.WORKERS, clock=time.monotonic)
        lags = []
        try:
            start = time.monotonic()
            futures = []
            for due, payload, seed in zip(inputs["due"], inputs["payloads"], inputs["seeds"]):
                wait = start + due - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                lags.append(time.monotonic() - start - due)
                futures.append(engine.submit(payload, seed=seed))
            deliveries = [future.result() for future in futures]
        finally:
            stats = engine.close()
        end = max(d.finished_at for d in deliveries)

        problems = []
        failed = 0
        succeeded = 0
        for delivery, payload in zip(deliveries, inputs["payloads"]):
            if delivery.status not in ("delivered", "undelivered"):
                failed += 1
                problems.append(f"request {delivery.request.request_id}: {delivery.status}")
            elif delivery.ok:
                if delivery.report.delivered_payload == payload:
                    succeeded += 1
                else:
                    failed += 1
                    problems.append(
                        f"request {delivery.request.request_id}: delivered payload differs"
                    )
        reports = [d.report for d in deliveries if d.report is not None]
        attempts = sum(f.num_attempts for r in reports for f in r.fragments)
        fragments_delivered = sum(f.delivered for r in reports for f in r.fragments)
        waits = [d.queue_wait for d in deliveries if d.queue_wait is not None]
        services = [d.service_time for d in deliveries if d.service_time is not None]
        return Outcome(
            wall=end - start,
            busy=sum(services),
            attempted=len(deliveries),
            succeeded=succeeded,
            failed=failed,
            problems=problems,
            latencies=[d.finished_at - start - due for d, due in zip(deliveries, inputs["due"])],
            digest=_digest([d.summary() for d in deliveries]),
            reports=[_digest(d.report.summary()) if d.report else "" for d in deliveries],
            layer={
                "runtime.queue_wait_ms_p50": percentile(waits, 0.5) * 1e3,
                "runtime.service_ms_p50": percentile(services, 0.5) * 1e3,
                "runtime.max_queue_depth": stats["max_queue_depth"],
                "loadgen.lag_ms_max": max(lags) * 1e3,
                "api.session_attempts": attempts,
                "api.useful_ratio": fragments_delivered / attempts if attempts else 0.0,
            },
        )

    def spot_check(self, config: Any, inputs: dict[str, Any], outcome: Outcome) -> list[str]:
        """Replay the first sends serially; the concurrent engine must match them."""
        from repro.api.service import MessagingService

        service = MessagingService(config)
        problems = []
        for request_id in range(min(self.SPOT_CHECKS, len(inputs["payloads"]))):
            payload, seed = inputs["payloads"][request_id], inputs["seeds"][request_id]
            serial = service.send(payload, seed=seed)
            if _digest(serial.summary()) != outcome.reports[request_id]:
                problems.append(f"request {request_id}: concurrent report differs from serial replay")
        return problems


# -- network_grid --------------------------------------------------------------------------
class _FixedTraffic:
    """Hands the scheduler a request list the benchmark generated."""

    def __init__(self, requests: list):
        self.requests = requests

    def generate(self, topology: Any, rng: Any = None) -> list:
        return list(self.requests)


class NetworkGrid:
    """``NetworkScheduler.run`` on a 4×4 grid with the ``network_scale`` defaults.

    200 Poisson sessions (rate 400/s) of 16-bit messages between uniform
    random node pairs, d=32 check pairs and l=2 identity pairs per hop,
    ``hops`` routing, 256-qubit nodes and 0.25 s admission patience; every
    node memory decoheres while a session waits, and relay ``n1_2`` mounts
    intercept-resend on the hops it touches.  ``CYCLE`` distinct traffic
    draws per seed are cycled so one run's delivery share rests on 1600
    sessions.
    """

    name = "network_grid"
    CYCLE = 8
    REPEATS = True
    ROWS = COLS = 4
    SCHEDULER = {"routing_policy": "hops", "max_wait": 0.25, "executor": "serial"}
    SESSIONS = 200
    RATE = 400.0
    MESSAGE_BITS = 16
    MEMORY_DEPHASING = 0.01
    COMPROMISED = ("n1_2",)

    def setup(self) -> Any:
        from repro.experiments.network_scale import build_network
        from repro.network import NetworkScheduler, SessionParameters

        topology = build_network(
            "grid",
            rows=self.ROWS,
            cols=self.COLS,
            qubit_capacity=256,
            memory_dephasing=self.MEMORY_DEPHASING,
            compromised=self.COMPROMISED,
        )
        params = SessionParameters(identity_pairs=2, check_pairs_per_round=32)
        NetworkScheduler(topology, session_params=params, **self.SCHEDULER)
        return topology, params

    def inputs(self, seed: int, seconds: float) -> list[dict[str, Any]]:
        from repro.network import SessionRequest

        names = [f"n{row}_{col}" for row in range(self.ROWS) for col in range(self.COLS)]
        sets = []
        for index in range(self.CYCLE):
            rng = _rng(seed, 100 + index)
            arrivals = np.cumsum(rng.exponential(1.0 / self.RATE, self.SESSIONS))
            requests = []
            for session_id, arrival in enumerate(arrivals):
                source, target = rng.choice(len(names), size=2, replace=False)
                message = "".join(str(bit) for bit in rng.integers(0, 2, self.MESSAGE_BITS))
                requests.append(
                    SessionRequest(
                        session_id=session_id,
                        source=names[int(source)],
                        target=names[int(target)],
                        message_length=self.MESSAGE_BITS,
                        arrival_time=float(arrival),
                        message=message,
                    )
                )
            sets.append({"requests": requests, "seed": int(rng.integers(0, 2**31 - 1))})
        return sets

    def operation(self, state: Any, inputs: list[dict[str, Any]], index: int = 0) -> Outcome:
        from repro.network import NetworkScheduler
        from repro.network.sessions import STATUS_DELIVERED

        topology, params = state
        traffic = inputs[index % len(inputs)]
        start = time.perf_counter()
        result = NetworkScheduler(
            topology, session_params=params, seed=traffic["seed"], **self.SCHEDULER
        ).run(_FixedTraffic(traffic["requests"]))
        wall = time.perf_counter() - start

        problems = []
        offered = len(traffic["requests"])
        accounted = result.delivered_count + result.aborted_count + result.rejected_count
        if accounted != offered or result.num_sessions != offered:
            problems.append(f"delivered+aborted+rejected = {accounted}, offered = {offered}")
        sent = {request.session_id: request.message for request in traffic["requests"]}
        wrong = [
            record.session_id
            for record in result.records
            if record.status == STATUS_DELIVERED and record.delivered_message != sent[record.session_id]
        ]
        if wrong:
            problems.append(f"sessions {wrong[:5]} delivered a different message")
        executed = [record for record in result.records if record.admitted]
        return Outcome(
            wall=wall,
            busy=wall,
            attempted=offered,
            succeeded=result.delivered_count,
            failed=abs(offered - accounted) + len(wrong),
            problems=problems,
            latencies=[wall],
            digest=_digest([record.summary() for record in result.records]),
            layer={
                "network.hops_per_session": (
                    sum(len(record.hop_reports) for record in executed) / len(executed)
                    if executed
                    else 0.0
                ),
            },
        )


# -- figures -------------------------------------------------------------------------------
class Figures:
    """Regenerate the quick ``fig2``, ``fig3`` and ``mitigation`` experiments."""

    name = "figures"
    CYCLE = 1
    REPEATS = True
    EXPERIMENTS = ("fig2", "fig3", "mitigation")

    def setup(self) -> Any:
        from repro.device.device_model import DeviceModel
        from repro.experiments import get_experiment

        for experiment_id in self.EXPERIMENTS:
            get_experiment(experiment_id)
        DeviceModel.ibm_brisbane()
        return None

    def inputs(self, seed: int, seconds: float) -> dict[str, int]:
        rng = _rng(seed, 200)
        return {experiment_id: int(rng.integers(0, 2**31 - 1)) for experiment_id in self.EXPERIMENTS}

    @staticmethod
    def check(experiment_id: str, result: Any) -> "str | None":
        """The paper's shape check for one experiment (None when it holds)."""
        if experiment_id == "fig2":
            if result.average_fidelity < 0.9:
                return f"fig2 average fidelity {result.average_fidelity:.3f} < 0.9"
        elif experiment_id == "fig3":
            # Adjacent points differ by shot noise (256 shots each), so the
            # trend is judged on the means of four consecutive quarters.
            quarters = [float(np.mean(part)) for part in np.array_split(result.accuracies, 4)]
            if any(later >= earlier for earlier, later in zip(quarters, quarters[1:])):
                return f"fig3 accuracy does not fall with eta: quarter means {quarters}"
        elif experiment_id == "mitigation":
            readout, zne = result.improvement("readout"), result.improvement("zne")
            if readout <= 0 or zne <= 0:
                return f"mitigation gains not positive: readout {readout:.4f}, zne {zne:.4f}"
        return None

    def operation(self, state: Any, inputs: dict[str, int], index: int = 0) -> Outcome:
        from repro.experiments import run_experiment

        start = time.perf_counter()
        results = {
            experiment_id: run_experiment(experiment_id, quick=True, seed=inputs[experiment_id])
            for experiment_id in self.EXPERIMENTS
        }
        wall = time.perf_counter() - start
        problems = [
            problem
            for problem in (self.check(key, result) for key, result in results.items())
            if problem
        ]
        return Outcome(
            wall=wall,
            busy=wall,
            attempted=len(results),
            succeeded=len(results) - len(problems),
            failed=len(problems),
            problems=problems,
            latencies=[wall],
            digest=_digest({key: repr(value) for key, value in results.items()}),
        )


WORKLOADS = {workload.name: workload for workload in (Messaging(), NetworkGrid(), Figures())}

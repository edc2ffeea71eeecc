"""The repository benchmark: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, run from the root of a checkout.

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed; ``--trace 1`` measures the per-layer metrics by alternating
untraced and traced operations on the same inputs (see ``spans.py``).  Every
timing is divided by the host-speed factor sampled while it ran (see
``hostspeed.py``), so it reads as at the reference speed.  Both
check the program's outputs and print, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metric names and units are the ones ``BENCHMARK.json`` lists.  A failed
correctness check still prints the result, then exits 1; a checkout without
the program source exits 2 without a result.
"""

from __future__ import annotations

import os

# One BLAS thread: on a host of a few cores, BLAS worker threads beside the
# program's own would time the scheduler, not the program.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from hostspeed import Sampler
from workloads import WORKLOADS, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
TRACE_DIR = HERE / "out"


def measure_setup(workload: str) -> float:
    """Median wall time of a fresh interpreter running the workload's set-up.

    Each probe samples the host speed during its set-up and prints the
    factor, which divides that probe's time.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload]
    timings = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(probe, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        timings.append((time.perf_counter() - start) / float(done.stdout.split()[-1]))
    return statistics.median(timings)


def sampled(workload, state, inputs, index: int):
    """One operation, with the host-speed factor sampled while it ran."""
    with Sampler() as sampler:
        outcome = workload.operation(state, inputs, index)
    outcome.host_factor = sampler.factor()
    return outcome


def run_operations(workload, state, inputs, seconds: float) -> list:
    """One cycle of operations, repeated until *seconds* have passed if the workload repeats."""
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < workload.CYCLE or (
        workload.REPEATS and time.perf_counter() - start < seconds
    ):
        outcomes.append(sampled(workload, state, inputs, len(outcomes)))
    return outcomes


def check(outcomes: list, cycle: int) -> "tuple[list[str], str]":
    """Problems the operations reported, plus repeat-determinism; and the run digest.

    Operation ``i`` reruns the inputs of operation ``i - cycle``, so their
    result digests must be equal.
    """
    problems = [problem for outcome in outcomes for problem in outcome.problems]
    for index in range(cycle, len(outcomes)):
        if outcomes[index].digest != outcomes[index - cycle].digest:
            problems.append(f"operation {index} repeated operation {index - cycle} differently")
    digest = "-".join(outcome.digest for outcome in outcomes[:cycle])
    return problems, digest


def end_to_end(workload, state, seed: int, seconds: float) -> dict:
    setup_s = measure_setup(workload.name)
    inputs = workload.inputs(seed, seconds)
    cycle = workload.CYCLE
    outcomes = run_operations(workload, state, inputs, seconds)
    problems, digest = check(outcomes, cycle)
    if hasattr(workload, "spot_check"):
        problems += workload.spot_check(state, inputs, outcomes[0])
    latencies = [latency / o.host_factor for o in outcomes for latency in o.latencies]
    first_cycle = outcomes[:cycle]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "throughput_per_s": sum(o.attempted for o in outcomes)
        / sum(o.busy / o.host_factor for o in outcomes),
        "success_frac": sum(o.succeeded for o in first_cycle) / sum(o.attempted for o in first_cycle),
    }
    return _result(outcomes, problems, digest, metrics)


def per_layer(workload, state, seed: int, seconds: float) -> dict:
    from repro import telemetry

    # Each untraced operation is followed by a traced one on the same inputs,
    # so the pair measures the tracing overhead; an open loop runs for half
    # the time in each.
    inputs = workload.inputs(seed, seconds / 2)
    untraced, traced, documents = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(sampled(workload, state, inputs, 0))
        saved = spans.install()
        try:
            with telemetry.capture() as session:
                traced.append(sampled(workload, state, inputs, 0))
        finally:
            spans.uninstall(saved)
        documents.append(session.document)
    outcomes = [outcome for pair in zip(untraced, traced) for outcome in pair]
    problems, digest = check(outcomes, 1)

    totals = [spans.layer_totals(document) for document in documents]
    factors = [outcome.host_factor for outcome in traced]
    TRACE_DIR.mkdir(exist_ok=True)
    (TRACE_DIR / f"{workload.name}-seed{seed}.json").write_text(documents[0].dumps(indent=None))

    first = totals[0]
    layer = {**traced[0].layer, **untraced[0].layer}

    def calls(span: str) -> int:
        return first["layers"].get(span, {}).get("calls", 0)

    def median_of(span: str, key: str) -> float:
        return statistics.median(
            total["layers"].get(span, {}).get(key, 0.0) / factor
            for total, factor in zip(totals, factors)
        )

    metrics = {
        key: layer.get(key, 0.0)
        for key in (
            "runtime.queue_wait_ms_p50",
            "runtime.service_ms_p50",
            "runtime.max_queue_depth",
            "loadgen.lag_ms_max",
            "api.session_attempts",
            "api.useful_ratio",
            "network.hops_per_session",
        )
    }
    for key in ("runtime.queue_wait_ms_p50", "runtime.service_ms_p50"):
        metrics[key] /= untraced[0].host_factor
    span_names = (
        "api.send protocol.session protocol.chsh protocol.encode protocol.bell_measure "
        "protocol.source channel.transmit network.run network.route network.session "
        "device.run device.run_batch quantum.dm_run quantum.dm_run_batch "
        "mitigation.readout mitigation.zne"
    ).split()
    for span in span_names:
        metrics[f"{span}.calls"] = calls(span)
        metrics[f"{span}.self_ms"] = median_of(span, "self_ms")
    for experiment_id in ("fig2", "fig3", "mitigation"):
        metrics[f"experiments.{experiment_id}.ms"] = median_of(f"experiments.{experiment_id}", "ms")
    for span in ("channel.memory", "attacks.intercept", "quantum.stabilizer", "quantum.stabilizer_batched"):
        metrics[f"{span}.calls"] = calls(span)
    sessions = calls("protocol.session")
    metrics["protocol.abort_frac"] = first["aborts"] / sessions if sessions else 0.0
    metrics["quantum.instructions"] = first["instructions"]
    metrics["trace.spans"] = first["spans"]
    metrics["trace.coverage"] = statistics.median(
        total["root_s"] / outcome.busy for total, outcome in zip(totals, traced)
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(o.busy / o.host_factor for o in traced)
        / statistics.median(o.busy / o.host_factor for o in untraced)
        - 1.0
    )
    return _result(outcomes, problems, digest, metrics)


def _result(outcomes: list, problems: "list[str]", digest: str, metrics: dict) -> dict:
    return {
        "problems": problems,
        "digest": digest,
        "host_factor": statistics.median(outcome.host_factor for outcome in outcomes),
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": metrics,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Experiment runs write artifacts to disk only when this is set.
    os.environ.pop("REPRO_ARTIFACT_DIR", None)

    workload = WORKLOADS[args.workload]
    state = workload.setup()
    measure = per_layer if args.trace else end_to_end
    result = measure(workload, state, args.seed, args.seconds)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [entry["name"] for entry in listed if entry["name"] not in result["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not result["problems"]
    print(f"digest {args.workload} seed={args.seed} trace={args.trace} {result['digest']}")
    print(f"host {args.workload} factor={result['host_factor']:.3f} (median over operations)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    entry["name"]: {"value": result["metrics"][entry["name"]], "unit": entry["unit"]}
                    for entry in listed
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

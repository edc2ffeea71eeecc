"""Invariant and metamorphic battery for the scheduler under dynamics + QoS.

Pins the contracts the ``fig_sla`` experiment relies on:

* **conservation** — every offered session ends in exactly one of
  delivered / aborted / rejected, whatever the traffic × policy × dynamics
  combination;
* **weighted fairness** — under symmetric saturation the per-class mean
  admission wait is ordered by weight, and equal offered work gets equal
  capacity shares;
* **outage safety** — no admitted session's reservation interval crosses a
  link or node inside a failure window, and blocked sessions are rejected
  with the ``outage_timeout`` reason;
* **metamorphic identities** — trivial dynamics reproduce the static
  scheduler byte-for-byte, and uniformly scaling QoS weights changes
  nothing;
* **input normalization** — ``TraceTraffic`` results are independent of
  entry order, including duplicate timestamps.
"""

import json

import pytest

from repro.network import (
    DEFAULT_QOS_WEIGHTS,
    NetworkDynamics,
    OutageSchedule,
    OutageWindow,
    PoissonTraffic,
    QoSPolicy,
    TraceTraffic,
    condition_profile,
    grid_topology,
    line_topology,
    link_key,
    simulate_network,
)
from repro.network.scheduler import NetworkScheduler
from repro.network.sessions import SessionParameters
from tests.network.reference_reservation import ReferenceScheduler

PARAMS = SessionParameters(identity_pairs=1, check_pairs_per_round=16)
CLASSES = ("control", "interactive", "bulk")


def _topology():
    return grid_topology(2, 2, qubit_capacity=48)


def _symmetric_trace(topology, slots: int = 20):
    """Identical offered work per class: same arrival times and endpoints."""
    names = list(topology.node_names)
    entries = []
    for index in range(slots):
        time = 1e-4 * index
        source = names[index % len(names)]
        target = names[(index + 3) % len(names)]
        for priority in CLASSES:
            entries.append((time, source, target, 8, priority))
    return TraceTraffic(entries)


def _assert_conserved(result):
    assert (
        result.delivered_count + result.aborted_count + result.rejected_count
        == result.num_sessions
    )
    admitted = sum(1 for record in result.records if record.admitted)
    assert admitted == result.delivered_count + result.aborted_count
    counts = result.class_counts()
    assert sum(c["sessions"] for c in counts.values()) == result.num_sessions
    for per_class in counts.values():
        assert (
            per_class["delivered"] + per_class["aborted"] + per_class["rejected"]
            == per_class["sessions"]
        )
        assert per_class["admitted"] == per_class["delivered"] + per_class["aborted"]


class TestConservation:
    @pytest.mark.parametrize("traffic_kind", ["poisson", "trace"])
    @pytest.mark.parametrize("qos_kind", ["none", "weighted"])
    @pytest.mark.parametrize("dynamics_kind", ["none", "static", "drift_outage"])
    def test_offered_sessions_conserved(self, traffic_kind, qos_kind, dynamics_kind):
        topology = _topology()
        if traffic_kind == "poisson":
            traffic = PoissonTraffic(
                num_sessions=30,
                rate=2000.0,
                message_length=8,
                priority_mix={name: 1.0 for name in CLASSES},
            )
        else:
            traffic = _symmetric_trace(topology, slots=10)
        qos = None if qos_kind == "none" else QoSPolicy(weights=dict(DEFAULT_QOS_WEIGHTS))
        if dynamics_kind == "none":
            dynamics = None
        else:
            dynamics = condition_profile(dynamics_kind, topology, seed=11, horizon=0.2)
        result = simulate_network(
            topology,
            traffic,
            session_params=PARAMS,
            max_wait=0.02,
            seed=7,
            executor="serial",
            dynamics=dynamics,
            qos=qos,
        )
        _assert_conserved(result)


class TestWeightedFairness:
    def _saturated_run(self, weights):
        topology = _topology()
        return simulate_network(
            topology,
            _symmetric_trace(topology),
            session_params=PARAMS,
            max_wait=0.05,
            seed=7,
            executor="serial",
            qos=QoSPolicy(weights=weights),
        )

    def test_mean_wait_ordered_by_weight(self):
        result = self._saturated_run({"control": 4.0, "interactive": 2.0, "bulk": 1.0})
        waits = {}
        for name in CLASSES:
            samples = [
                record.wait_time
                for record in result.records
                if record.priority == name and record.admitted
            ]
            assert samples, f"expected admitted {name} sessions under saturation"
            waits[name] = sum(samples) / len(samples)
        assert waits["control"] < waits["interactive"] < waits["bulk"]

    def test_equal_offered_work_gets_equal_shares(self):
        result = self._saturated_run({"control": 4.0, "interactive": 2.0, "bulk": 1.0})
        shares = result.class_shares()
        assert result.rejected_count > 0  # genuinely saturated
        for name in CLASSES:
            assert shares[name] == pytest.approx(1.0 / len(CLASSES), abs=0.15)


class TestOutageSafety:
    def test_no_reservation_crosses_failure_window(self):
        topology = grid_topology(3, 3, qubit_capacity=96)
        dynamics = condition_profile("drift_outage", topology, seed=5, horizon=0.3)
        outages = dynamics.outages
        assert outages is not None and outages.windows  # profile produced failures
        traffic = PoissonTraffic(num_sessions=60, rate=1500.0, message_length=8)
        result = simulate_network(
            topology,
            traffic,
            session_params=PARAMS,
            max_wait=0.05,
            seed=5,
            executor="serial",
            dynamics=dynamics,
        )
        checked = 0
        for record in result.records:
            if not record.admitted:
                continue
            start, end = record.start_time, record.finish_time
            for node in record.route_nodes:
                assert not outages.node_blocked(node, start, end)
            for node_a, node_b in zip(record.route_nodes, record.route_nodes[1:]):
                assert not outages.link_blocked(node_a, node_b, start, end)
                checked += 1
        assert checked > 0

    def test_blocked_sessions_reject_with_outage_timeout(self):
        topology = line_topology(2, qubit_capacity=64)
        names = list(topology.node_names)
        dynamics = NetworkDynamics(
            outages=OutageSchedule(
                [OutageWindow("link", link_key(names[0], names[1]), 0.0, 1000.0)]
            )
        )
        traffic = TraceTraffic([(0.0, names[0], names[1], 8)])
        result = simulate_network(
            topology,
            traffic,
            session_params=PARAMS,
            max_wait=0.01,
            seed=3,
            dynamics=dynamics,
        )
        record = result.records[0]
        assert not record.admitted
        assert record.abort_reason == "outage_timeout"
        assert "rejected:outage_timeout" in result.outage_decomposition()


class TestMetamorphic:
    def _run(
        self,
        *,
        dynamics=None,
        qos=None,
        executor="serial",
        scheduler=NetworkScheduler,
        rate=1500.0,
        max_wait=0.05,
    ):
        topology = _topology()
        traffic = PoissonTraffic(
            num_sessions=30,
            rate=rate,
            message_length=8,
            priority_mix={name: 1.0 for name in CLASSES},
        )
        return scheduler(
            topology,
            session_params=PARAMS,
            max_wait=max_wait,
            seed=9,
            executor=executor,
            dynamics=dynamics,
            qos=qos,
        ).run(traffic)

    @pytest.mark.parametrize(
        "rate, max_wait",
        [(1500.0, 0.05), (5000.0, 0.005), (5000.0, None)],
        ids=["queueing", "timeouts", "patient"],
    )
    @pytest.mark.parametrize("dynamics", [None, NetworkDynamics.static()], ids=["none", "static"])
    def test_trivial_dynamics_bit_identical_to_static(self, dynamics, rate, max_wait):
        """Static conditions without QoS reproduce the frozen FIFO reference pass."""
        reference = self._run(scheduler=ReferenceScheduler, rate=rate, max_wait=max_wait)
        assert any(record.hold_time for record in reference.records), (
            "the traffic must queue sessions behind full memories"
        )
        result = self._run(dynamics=dynamics, rate=rate, max_wait=max_wait)
        assert result.sim_time == reference.sim_time
        assert json.dumps(result.summary(), sort_keys=True) == json.dumps(
            reference.summary(), sort_keys=True
        )
        for left, right in zip(result.records, reference.records, strict=True):
            assert left.summary() == right.summary()

    def test_uniform_weight_scaling_changes_nothing(self):
        base = self._run(qos=QoSPolicy(weights={"control": 4.0, "interactive": 2.0, "bulk": 1.0}))
        scaled = self._run(
            qos=QoSPolicy(weights={"control": 28.0, "interactive": 14.0, "bulk": 7.0})
        )
        assert json.dumps(base.summary(), sort_keys=True) == json.dumps(
            scaled.summary(), sort_keys=True
        )

    def test_serial_thread_parity_with_dynamics_and_qos(self):
        topology = _topology()
        dynamics = condition_profile("drift_outage", topology, seed=9, horizon=0.2)
        qos = QoSPolicy(weights=dict(DEFAULT_QOS_WEIGHTS))
        serial = self._run(dynamics=dynamics, qos=qos, executor="serial")
        threaded = self._run(dynamics=dynamics, qos=qos, executor="thread")
        assert json.dumps(serial.summary(), sort_keys=True) == json.dumps(
            threaded.summary(), sort_keys=True
        )


class TestTraceNormalization:
    def test_entry_order_irrelevant_with_duplicate_timestamps(self):
        """Regression: session ids / seeds once depended on caller entry order."""
        topology = _topology()
        names = list(topology.node_names)
        entries = [
            (0.0, names[0], names[1], 8, "bulk"),
            (0.0, names[2], names[3], 8, "control"),
            (0.0, names[1], names[2], 8, "interactive"),
            (1e-3, names[3], names[0], 8, "bulk"),
            (1e-3, names[0], names[2], 8, "bulk"),
        ]
        summaries = []
        for permutation in (entries, entries[::-1], entries[2:] + entries[:2]):
            result = simulate_network(
                topology,
                TraceTraffic(permutation),
                session_params=PARAMS,
                max_wait=0.05,
                seed=21,
                executor="serial",
            )
            summaries.append(json.dumps(result.summary(), sort_keys=True))
        assert summaries[0] == summaries[1] == summaries[2]

    def test_four_tuples_default_to_bulk(self):
        traffic = TraceTraffic([(0.0, "a", "b", 8)])
        assert traffic.entries[0][4] == "bulk"

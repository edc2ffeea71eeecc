"""The frozen-conditions reservation pass: the oracle for the scheduler's one pass.

:class:`ReferenceScheduler` is a :class:`NetworkScheduler` whose
reservation pass ignores dynamics and QoS: FIFO service of one waiting
queue over a heap of ``(time, kind, sequence)`` events, where completions
free capacity before timeouts give up on queued sessions and both precede
new arrivals.  The scheduler's condition-aware pass must reproduce it
exactly when conditions are static and no QoS policy is set.
"""

from __future__ import annotations

import heapq

from repro.network.scheduler import NetworkScheduler, _Pending
from repro.runtime.admission import NodeCapacityLedger
from repro.telemetry import runtime as telemetry

_COMPLETION, _TIMEOUT, _ARRIVAL = 0, 1, 2


class ReferenceScheduler(NetworkScheduler):
    """:class:`NetworkScheduler` with the frozen-conditions FIFO reservation pass."""

    def _reservation_pass(self, pendings: list[_Pending]) -> float:
        """FIFO admission/timing on frozen conditions; fills scheduling fields."""
        ledger = NodeCapacityLedger(self.topology)
        events: list[tuple[float, int, int, _Pending]] = []
        sequence = 0

        def push(time: float, kind: int, pending: _Pending) -> None:
            nonlocal sequence
            heapq.heappush(events, (time, kind, sequence, pending))
            sequence += 1

        for pending in pendings:
            if pending.route is None:
                pending.resolved = True  # rejected outright: no route
                continue
            push(pending.request.arrival_time, _ARRIVAL, pending)
            if self.max_wait is not None:
                push(pending.request.arrival_time + self.max_wait, _TIMEOUT, pending)

        queue: list[_Pending] = []
        sim_time = max((p.request.arrival_time for p in pendings), default=0.0)

        def admit(pending: _Pending, now: float) -> None:
            record = pending.record
            session_id = pending.request.session_id
            telemetry.counter_inc("scheduler.admitted")
            telemetry.counter_inc(
                "scheduler.qubits_reserved", sum(pending.qubits_needed.values())
            )
            ledger.reserve(session_id, pending.qubits_needed)
            record.start_time = now
            record.finish_time = now + pending.duration
            record.hold_time = (now - pending.request.arrival_time) / self.hold_time_unit
            pending.admitted = True
            pending.resolved = True
            for sender, receiver in pending.route.hops():
                self.topology.link(sender, receiver).classical_channel.broadcast(
                    "scheduler",
                    "route_reserved",
                    {"session": session_id, "start": now, "finish": record.finish_time},
                )
            push(record.finish_time, _COMPLETION, pending)

        while events:
            now, kind, _, pending = heapq.heappop(events)
            if kind == _TIMEOUT and pending.resolved:
                # Stale timeout of an already-scheduled session: must not
                # advance sim_time, or every run with max_wait set would have
                # its horizon padded to last_arrival + max_wait and all
                # throughput figures silently deflated.
                continue
            sim_time = max(sim_time, now)
            if kind == _ARRIVAL:
                if not ledger.viable(pending.qubits_needed):
                    pending.resolved = True
                    pending.record.abort_reason = "insufficient_capacity"
                    telemetry.counter_inc(
                        "scheduler.rejections", reason="insufficient_capacity"
                    )
                elif ledger.fits(pending.qubits_needed):
                    admit(pending, now)
                else:
                    queue.append(pending)
                    telemetry.observe("scheduler.queue_depth", len(queue))
            elif kind == _COMPLETION:
                session_id = pending.request.session_id
                ledger.release(session_id, pending.qubits_needed)
                for sender, receiver in pending.route.hops():
                    self.topology.link(sender, receiver).classical_channel.broadcast(
                        "scheduler", "route_released", {"session": session_id}
                    )
                still_waiting = []
                for waiting in queue:
                    if not waiting.resolved and ledger.fits(waiting.qubits_needed):
                        admit(waiting, now)
                    elif not waiting.resolved:
                        still_waiting.append(waiting)
                queue = still_waiting
            elif kind == _TIMEOUT:
                pending.resolved = True
                pending.record.abort_reason = "capacity_timeout"
                telemetry.counter_inc(
                    "scheduler.rejections", reason="capacity_timeout"
                )
                queue = [waiting for waiting in queue if waiting is not pending]

        # With max_wait=None a queued session is always admitted eventually
        # (reservations drain, and unviable requests were rejected on
        # arrival); this is a defensive sweep, not an expected path.
        for pending in queue:
            if not pending.resolved:
                pending.resolved = True
                pending.record.abort_reason = "capacity_timeout"
        return sim_time

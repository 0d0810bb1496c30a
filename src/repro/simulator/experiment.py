"""Experiment runner: one topology, one workload, several routing schemes.

:class:`ExperimentRunner` replays the same transaction workload over the
same funded topology under each scheme: channel balances are snapshotted
before the first run and restored between runs, and every scheme is stepped
at a fixed interval by the discrete-event engine.  Arrivals never touch the
event heap: at every *drain point* (scheme tick, dynamics event, timed
revert, end of run) one sorted cursor hands the scheme, through
:meth:`RoutingScheme.route_batch`, everything that arrived since the last
one.  Nothing mutates scheme or network state between two drain points and
each request keeps its own arrival timestamp, so results are identical to
delivering every arrival as its own event -- the definition kept in
:mod:`repro.reference.simulator` and pinned against this module by
``tests/simulator/test_epoch_stepper_equivalence.py`` -- while schemes
amortize their work across each batch.  The result is one
:class:`~repro.simulator.metrics.SchemeMetrics` per scheme, which is exactly
the material of the paper's figures 7, 8 and 9 and Table II.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Sequence

import numpy as np

if TYPE_CHECKING:  # imported lazily to keep simulator importable before baselines
    from repro.baselines.base import RoutingScheme, SchemeStepReport

from repro.obs import core as obs
from repro.simulator.engine import SimulationEngine
from repro.simulator.metrics import MetricsCollector, SchemeMetrics
from repro.simulator.workload import StreamingWorkload, TransactionWorkload
from repro.topology.network import PCNetwork


def validate_stepping(step_size: float, drain_time: float) -> None:
    """The runner's rules for its stepping parameters (``ValueError`` otherwise).

    Shared with :meth:`repro.scenarios.spec.ScenarioSpec.validate`, which
    applies it to every grid point in the sweep's parent process.
    """
    if step_size <= 0:
        raise ValueError("step_size must be positive")
    if drain_time < 0:
        raise ValueError("drain_time must be non-negative")


class _ArrivalCursor:
    """Sorted drain cursor over a workload's time-ordered request chunks.

    Holds one chunk at a time -- the request list plus a float64 array of
    its arrival times -- so each drain is one ``np.searchsorted`` and a list
    slice, and a streamed trace never materializes beyond the current chunk.
    The stable ``(arrival_time, index)`` order of the chunks and the
    inclusive ``arrival_time <= now`` boundary reproduce exactly what a
    ``(time, sequence)`` event heap holding one event per request would have
    delivered by ``now``.
    """

    def __init__(self, workload: "TransactionWorkload | StreamingWorkload") -> None:
        self._chunks = iter(workload.iter_chunks())
        self._requests: List = []
        self._times = np.empty(0)
        self._index = 0

    def take_until(self, now: float) -> List:
        """All not-yet-taken requests with ``arrival_time <= now``, in order."""
        taken: List = []
        while True:
            hi = int(np.searchsorted(self._times, now, side="right"))
            if hi > self._index:
                taken += self._requests[self._index : hi]
                self._index = hi
            if hi < len(self._requests):
                return taken
            chunk = next(self._chunks, None)
            if chunk is None:
                return taken
            self._requests = chunk
            self._times = np.fromiter(
                (request.arrival_time for request in chunk), dtype=float, count=len(chunk)
            )
            self._index = 0


class NetworkDynamicsEvent(Protocol):
    """A mid-run network mutation the runner injects through the engine.

    Implemented by :mod:`repro.scenarios.dynamics`; the runner only relies on
    this structural interface so the simulator stays independent of the
    scenario layer.  ``apply`` mutates the network and returns an undo
    callable (or ``None`` when the event was a no-op, e.g. closing a channel
    that is already gone).  Events with a ``duration`` are automatically
    undone that many seconds after they fire; every mutation still
    outstanding at the end of a run is undone before the next scheme runs,
    so snapshot/restore replay keeps working.
    """

    time: float
    duration: Optional[float]

    def apply(self, network: PCNetwork) -> Optional[Callable[[], None]]: ...


@dataclass
class ExperimentResult:
    """Outcome of one experiment: per-scheme metrics plus workload context."""

    metrics: Dict[str, SchemeMetrics]
    workload_count: int
    workload_value: float
    parameters: Dict[str, object] = field(default_factory=dict)

    def scheme(self, name: str) -> SchemeMetrics:
        """Metrics of one scheme by name."""
        return self.metrics[name]

    def schemes(self) -> List[str]:
        """Scheme names in insertion order."""
        return list(self.metrics)

    def ranking(self, metric: str = "success_ratio") -> List[str]:
        """Scheme names sorted best-first by the given metric attribute."""
        return sorted(
            self.metrics,
            key=lambda name: getattr(self.metrics[name], metric),
            reverse=True,
        )

    def improvement(self, scheme: str, baseline: str, metric: str = "success_ratio") -> float:
        """Relative improvement of ``scheme`` over ``baseline`` on a metric.

        Returns ``(scheme - baseline) / baseline``; +inf when the baseline is 0
        and the scheme is positive, 0.0 when both are 0.
        """
        ours = getattr(self.metrics[scheme], metric)
        theirs = getattr(self.metrics[baseline], metric)
        if theirs == 0:
            return float("inf") if ours > 0 else 0.0
        return (ours - theirs) / theirs

    def as_rows(self) -> List[Dict[str, object]]:
        """Row-per-scheme dictionaries for table rendering."""
        return [metrics.as_dict() for metrics in self.metrics.values()]


class ExperimentRunner:
    """Replays one workload over one network under several schemes.

    This is the measurement loop behind the paper's evaluation (section VI):
    each scheme sees the identical funded topology and arrival stream, and
    its :class:`~repro.simulator.metrics.SchemeMetrics` row is one bar of
    figures 7/8 or one cell of Table II.  Mid-run network dynamics are
    applied through the engine: due arrivals are drained before every
    mutation and the scheme's ``on_network_change`` runs after it, so state
    a scheme derives from the network (SpeedyMurmurs' embedding) is repaired
    before its next call.  Balances need no such bracketing: schemes read
    and write them on the network's balance store.
    """

    def __init__(
        self,
        network: PCNetwork,
        workload: "TransactionWorkload | StreamingWorkload",
        step_size: float = 0.1,
        drain_time: float = 5.0,
        dynamics: Optional[Sequence[NetworkDynamicsEvent]] = None,
    ) -> None:
        validate_stepping(step_size, drain_time)
        self.network = network
        self.workload = workload
        self.step_size = step_size
        self.drain_time = drain_time
        self.dynamics: List[NetworkDynamicsEvent] = list(dynamics or [])
        self._snapshot = network.snapshot()

    @property
    def topology_moved(self) -> bool:
        """Whether a channel was added or removed since the snapshot.

        Resetting brings the channel set back but not its adjacency order, so
        a runner whose topology moved no longer replays what a fresh build of
        the same network would: path ties break differently.
        """
        return self.network.topology_version != self._snapshot.topology_version

    def reset_network(self) -> None:
        """Bring the network back to the snapshot: channel set, balances, no locks."""
        self.network.release_all_locks()
        self._reconcile_topology()
        self.network.restore(self._snapshot)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        schemes: Sequence[RoutingScheme],
        rng: Optional[np.random.Generator] = None,
        parameters: Optional[Dict[str, object]] = None,
        dynamics: Optional[Sequence[NetworkDynamicsEvent]] = None,
    ) -> ExperimentResult:
        """Run every scheme on the workload and collect its metrics."""
        metrics: Dict[str, SchemeMetrics] = {}
        for scheme in schemes:
            metrics[scheme.name] = self.run_single(scheme, rng=rng, dynamics=dynamics)
        return ExperimentResult(
            metrics=metrics,
            workload_count=self.workload.count,
            workload_value=self.workload.total_value,
            parameters=dict(parameters or {}),
        )

    def run_single(
        self,
        scheme: RoutingScheme,
        rng: Optional[np.random.Generator] = None,
        dynamics: Optional[Sequence[NetworkDynamicsEvent]] = None,
    ) -> SchemeMetrics:
        """Run one scheme on the workload from a pristine copy of the topology.

        ``dynamics`` (defaulting to the runner-level list) are injected as
        engine events: each fires at its ``time``, mutates the live network,
        and is undone after its ``duration`` -- or at the end of the run, so
        the next scheme replays the identical (static) starting topology.

        Arrivals are drained through :meth:`RoutingScheme.route_batch` at
        every tick, dynamics event, timed revert and at the end of the run
        (see :meth:`_arrival_drain`); streamed workloads (trace replays) are
        pulled chunk by chunk at the same drain points, so the full trace is
        never materialized as Python objects.
        """
        self.reset_network()
        scheme.prepare(self.network, rng=rng)
        collector = MetricsCollector(scheme.name)

        engine = SimulationEngine()
        end_time = self.workload.config.duration + self.drain_time

        rec = obs.RECORDER
        if rec.enabled:
            rec.set_scheme(scheme.name)
            rec.trace_event(
                "run.start", 0.0,
                end_time=round(end_time, 9), requests=self.workload.count,
            )

        # Set up before anything else is scheduled: an arrival at exactly a
        # drain point's time belongs to that drain (the per-event oracle in
        # repro.reference.simulator relies on this position to schedule its
        # arrival events ahead of the ticks).
        drain_arrivals = self._arrival_drain(engine, scheme, collector)

        def on_tick(_engine: SimulationEngine, _event) -> None:
            drain_arrivals()
            report = scheme.step(_engine.now, self.step_size)
            self._consume(report, collector, _engine.now)

        engine.schedule_periodic(
            start=self.step_size,
            interval=self.step_size,
            end=end_time,
            handler=on_tick,
        )
        events = self.dynamics if dynamics is None else list(dynamics)
        outstanding = self._schedule_dynamics(engine, events, scheme, drain_arrivals)
        health = rec.health if rec.enabled else None
        if health is not None:
            # Scheduled after the tick series so that a probe landing on a
            # tick's timestamp observes the post-step network.  The probe is
            # strictly read-only, so results stay bit-identical with
            # telemetry on or off.
            def on_probe(_engine: SimulationEngine, _event) -> None:
                health.observe(scheme.name, self.network, _engine.now)

            engine.schedule_periodic(
                start=health.interval,
                interval=health.interval,
                end=end_time,
                handler=on_probe,
            )
        try:
            engine.run(until=end_time)
            drain_arrivals()
            final_report = scheme.finish(end_time)
            self._consume(final_report, collector, end_time)
        finally:
            # Undo mutations still in effect (newest first) so the snapshot
            # can be restored for the next scheme.
            for key in sorted(outstanding, reverse=True):
                outstanding.pop(key)()
            scheme.on_network_change()
        collector.add_overhead(scheme.overhead_messages())
        if rec.enabled:
            rec.trace_event(
                "run.end", end_time,
                completed=collector.completed_count, failed=collector.failed_count,
                generated=collector.generated_count,
            )
            rec.set_scheme(None)
        return collector.finalize()

    def _arrival_drain(
        self, engine: SimulationEngine, scheme: RoutingScheme, collector: MetricsCollector
    ) -> Callable[[], None]:
        """The callable every drain point invokes to deliver due arrivals.

        A fresh cursor per run: each call hands the scheme, as one batch,
        every request with ``arrival_time <= engine.now`` not yet delivered.
        ``engine.run`` leaves ``now == end_time``, so the final drain sees
        the tail of the workload; later arrivals are never delivered and
        never counted as generated.  This is the runner's only
        arrival-delivery code; the per-event definition it must agree with
        overrides it in :mod:`repro.reference.simulator`.
        """
        cursor = _ArrivalCursor(self.workload)
        rec = obs.RECORDER

        def drain_arrivals() -> None:
            batch = cursor.take_until(engine.now)
            if not batch:
                return
            collector.record_generated_batch([request.value for request in batch])
            if rec.enabled:
                rec.note_batch(scheme.name, len(batch))
            scheme.route_batch(batch)

        return drain_arrivals

    def _schedule_dynamics(
        self,
        engine: SimulationEngine,
        events: Sequence[NetworkDynamicsEvent],
        scheme: RoutingScheme,
        drain_arrivals: Callable[[], None],
    ) -> Dict[int, Callable[[], None]]:
        """Schedule dynamics events plus their timed reverts on the engine.

        Buffered arrivals are drained *before* every mutation (they arrived
        while the network was unchanged) and the scheme's
        ``on_network_change`` runs *after* it, for the apply and the timed
        revert alike.

        Returns the registry of outstanding undo callables; entries are
        removed as timed reverts fire, and whatever remains at the end of the
        run must be executed by the caller.
        """
        outstanding: Dict[int, Callable[[], None]] = {}
        keys = itertools.count()

        def on_dynamics(_engine: SimulationEngine, event) -> None:
            dynamics_event = event.payload
            drain_arrivals()
            undo = dynamics_event.apply(self.network)
            scheme.on_network_change()
            rec = obs.RECORDER
            if rec.enabled:
                rec.trace_event(
                    "dynamics.apply", _engine.now,
                    event=type(dynamics_event).__name__,
                    applied=undo is not None,
                    duration=dynamics_event.duration,
                )
            if undo is None:
                return
            key = next(keys)
            outstanding[key] = undo

            if dynamics_event.duration is None:
                return

            def on_revert(_e: SimulationEngine, _ev, _key: int = key) -> None:
                revert = outstanding.pop(_key, None)
                if revert is not None:
                    drain_arrivals()
                    revert()
                    scheme.on_network_change()
                    inner = obs.RECORDER
                    if inner.enabled:
                        inner.trace_event(
                            "dynamics.revert", _e.now,
                            event=type(dynamics_event).__name__,
                        )

            _engine.schedule_at(_engine.now + dynamics_event.duration, handler=on_revert)

        for dynamics_event in events:
            engine.schedule_at(dynamics_event.time, payload=dynamics_event, handler=on_dynamics)
        return outstanding

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _reconcile_topology(self) -> None:
        """Force the channel set back to the snapshotted topology.

        Nothing to do while the network is still at the snapshot's
        ``topology_version``.  Otherwise the dynamics undo stack has normally
        restored the channel set on its own and the walk below finds nothing
        to fix; it is the safety net for pathological event combinations
        (e.g. a close and an open overlapping on the same node pair, where
        one undo consumes the other's effect).  Channels the snapshot does
        not know are removed, channels it knows but the network lost are
        recreated; ``restore`` then resets every balance.
        """
        if not self.topology_moved:
            return
        snapshot, network = self._snapshot, self.network
        known = {frozenset(pair) for pair in snapshot.pairs()}
        for channel in list(network.channels()):
            if frozenset(channel.endpoints) not in known:
                network.remove_channel(*channel.endpoints)
        for position, (node_a, node_b) in enumerate(snapshot.pairs()):
            if not network.has_channel(node_a, node_b):
                network.add_channel(
                    node_a,
                    node_b,
                    *snapshot.balances[2 * position : 2 * position + 2],
                    *snapshot.fees[2 * position : 2 * position + 2],
                )

    def _consume(
        self,
        report: SchemeStepReport,
        collector: MetricsCollector,
        now: float,
    ) -> None:
        """Fold one step report into the collector (and the trace).

        Terminal trace spans are emitted here and only here: interior sites
        (router, atomic executors) emit detail events, so every sampled
        payment gets exactly one ``settle``/``fail``.  ``payment_begin`` is
        idempotent and guarantees the arrival span exists even for payments
        rejected before any executor saw them.
        """
        rec = obs.RECORDER
        for payment in report.completed:
            collector.record_completed(payment)
            if rec.enabled and rec.payment_begin(payment):
                settled_at = payment.completed_at if payment.completed_at is not None else now
                rec.payment_end(
                    payment, "settle", settled_at,
                    value=round(payment.value, 9),
                    latency=round(payment.latency or 0.0, 9),
                    hops=payment.hops_used,
                )
        for payment in report.failed:
            collector.record_failed(payment)
            if rec.enabled and rec.payment_begin(payment):
                rec.payment_end(
                    payment, "fail", now,
                    reason=payment.failure_reason or "unknown",
                )
        collector.add_fees(report.fees_paid)


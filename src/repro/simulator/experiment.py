"""Experiment runner: one topology, one workload, several routing schemes.

:class:`ExperimentRunner` replays the same transaction workload over the
same funded topology under each scheme: channel balances are snapshotted
before the first run and restored between runs, arrivals are delivered
through the discrete-event engine, and every scheme is stepped at a fixed
interval.  By default consecutive arrivals are coalesced and drained in
epoch-sized batches through :meth:`RoutingScheme.route_batch` -- nothing
happens between coalesced arrivals and each request keeps its own arrival
timestamp, so results are identical to per-arrival delivery while schemes amortize
their work across each batch.  The result is one
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
from repro.simulator.events import Event, EventKind
from repro.simulator.metrics import MetricsCollector, SchemeMetrics
from repro.simulator.workload import StreamingWorkload, TransactionWorkload
from repro.topology.network import PCNetwork


#: Execution engines of the runner: ``"events"`` schedules every arrival as
#: its own engine event (the reference), ``"epoch"`` drains arrivals from a
#: sorted array cursor per tick without touching the python heap per payment.
VALID_ENGINES = ("events", "epoch")


class _EpochArrivalCursor:
    """Array-backed drain cursor over a materialized workload (epoch engine).

    Holds the stable arrival-time-sorted request list plus a float64 view of
    the times; each drain is one ``np.searchsorted`` and a list slice.  The
    order and the strict ``arrival_time <= now`` boundary reproduce exactly
    what the event engine's ``(time, sequence)`` heap delivers, so the two
    execution paths are decision-identical (pinned by
    ``tests/simulator/test_epoch_stepper_equivalence.py``).
    """

    def __init__(self, times: np.ndarray, requests: List) -> None:
        self._times = times
        self._requests = requests
        self._index = 0

    def take_until(self, now: float) -> List:
        """All not-yet-taken requests with ``arrival_time <= now``, in order."""
        hi = int(np.searchsorted(self._times, now, side="right"))
        lo = self._index
        if hi <= lo:
            return []
        self._index = hi
        return self._requests[lo:hi]


class _ArrivalCursor:
    """Pulls time-ordered requests out of a streaming workload on demand.

    Streaming replay must be *decision-identical* to scheduling every
    request as an engine event: with batched arrivals, a request arriving
    at or before a drain point (tick, dynamics event, final drain) is part
    of that drain's batch.  The cursor reproduces exactly that with a
    strict ``arrival_time <= now`` test, holding only one chunk of the
    stream in memory at a time.
    """

    def __init__(self, workload: StreamingWorkload) -> None:
        self._chunks = iter(workload.iter_chunks())
        self._buffer: List = []
        self._index = 0

    def take_until(self, now: float) -> List:
        """All not-yet-taken requests with ``arrival_time <= now``, in order."""
        taken: List = []
        while True:
            while self._index < len(self._buffer):
                request = self._buffer[self._index]
                if request.arrival_time > now:
                    return taken
                taken.append(request)
                self._index += 1
            chunk = next(self._chunks, None)
            if chunk is None:
                return taken
            self._buffer = chunk
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
    applied through the engine with the scheme's fast-path state flushed
    before and invalidated after every mutation (``flush_state`` /
    ``on_network_change``), so a scheme's array mirrors observe exactly
    what code reading the channel objects would.
    """

    def __init__(
        self,
        network: PCNetwork,
        workload: "TransactionWorkload | StreamingWorkload",
        step_size: float = 0.1,
        drain_time: float = 5.0,
        dynamics: Optional[Sequence[NetworkDynamicsEvent]] = None,
        batch_arrivals: bool = True,
        engine: str = "events",
    ) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        if drain_time < 0:
            raise ValueError("drain_time must be non-negative")
        if engine not in VALID_ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {VALID_ENGINES}")
        if hasattr(workload, "iter_chunks") and not batch_arrivals:
            raise ValueError(
                "streaming workloads require batch_arrivals=True; "
                "materialize() the workload for per-arrival delivery"
            )
        if engine == "epoch" and not batch_arrivals:
            raise ValueError("the epoch engine requires batch_arrivals=True")
        self.network = network
        self.workload = workload
        self.step_size = step_size
        self.drain_time = drain_time
        self.batch_arrivals = batch_arrivals
        self.engine = engine
        self._epoch_arrivals: Optional[tuple] = None
        self.dynamics: List[NetworkDynamicsEvent] = list(dynamics or [])
        self._snapshot = network.snapshot()
        self._channel_fees = {
            frozenset(channel.endpoints): (channel.base_fee, channel.fee_rate)
            for channel in network.channels()
        }

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

        With ``batch_arrivals`` (the default) consecutive arrival events are
        coalesced and drained through :meth:`RoutingScheme.route_batch` at
        the next tick or dynamics event.  Nothing happens between coalesced
        arrivals, and each request is routed at its own arrival time, so the
        decision sequence is identical to per-arrival delivery; schemes
        amortize their work across the batch.

        :class:`~repro.simulator.workload.StreamingWorkload` inputs (trace
        replays) are pulled chunk by chunk at the same drain points instead
        of being pre-scheduled, with identical batch boundaries -- the full
        trace is never materialized as Python objects.
        """
        self._reset_network()
        scheme.prepare(self.network, rng=rng)
        collector = MetricsCollector(scheme.name)

        engine = SimulationEngine()
        end_time = self.workload.config.duration + self.drain_time
        pending: List = []
        # Streaming workloads are pulled through a cursor at every drain
        # point instead of being pre-scheduled as engine events; the strict
        # arrival_time <= now test makes the two delivery paths
        # decision-identical (engine.run leaves now == end_time, so the
        # final drain sees the stream's tail as well).  The epoch engine
        # extends the same cursor contract to materialized workloads: no
        # per-payment heap events at all, one searchsorted slice per drain.
        if hasattr(self.workload, "iter_chunks"):
            cursor = _ArrivalCursor(self.workload)
        elif self.engine == "epoch":
            cursor = self._epoch_cursor()
        else:
            cursor = None

        rec = obs.RECORDER
        if rec.enabled:
            rec.set_scheme(scheme.name)
            rec.trace_event(
                "run.start", 0.0,
                end_time=round(end_time, 9), requests=self.workload.count,
            )

        def drain_arrivals() -> None:
            if cursor is not None:
                pending.extend(cursor.take_until(engine.now))
            if not pending:
                return
            batch = list(pending)
            pending.clear()
            collector.record_generated_batch([request.value for request in batch])
            if rec.enabled:
                rec.note_batch(scheme.name, len(batch))
            scheme.route_batch(batch)

        if self.batch_arrivals:

            def on_arrival(_engine: SimulationEngine, event) -> None:
                pending.append(event.payload)

        else:

            def on_arrival(_engine: SimulationEngine, event) -> None:
                request = event.payload
                collector.record_generated(request.value)
                scheme.submit(request, _engine.now)

        def on_tick(_engine: SimulationEngine, _event) -> None:
            drain_arrivals()
            report = scheme.step(_engine.now, self.step_size)
            self._consume(report, scheme, collector, _engine.now)

        if cursor is None:
            engine.schedule_many(
                Event(
                    time=request.arrival_time,
                    kind=EventKind.PAYMENT_ARRIVAL,
                    payload=request,
                    handler=on_arrival,
                )
                for request in self.workload.requests
            )
        engine.schedule_periodic(
            start=self.step_size,
            interval=self.step_size,
            end=end_time,
            kind=EventKind.SCHEME_TICK,
            handler=on_tick,
        )
        events = self.dynamics if dynamics is None else list(dynamics)
        outstanding = self._schedule_dynamics(engine, events, scheme, drain_arrivals)
        health = rec.health if rec.enabled else None
        if health is not None:
            # Scheduled after the tick series so that a probe landing on a
            # tick's timestamp observes the post-step network.  The probe is
            # strictly read-only: flushing makes the channel objects
            # authoritative without changing any scheme decision, so results
            # stay bit-identical with telemetry on or off.
            def on_probe(_engine: SimulationEngine, _event) -> None:
                scheme.flush_state()
                health.observe(
                    scheme.name, self.network, _engine.now,
                    cache_stats=scheme.path_store_stats(),
                )

            engine.schedule_periodic(
                start=health.interval,
                interval=health.interval,
                end=end_time,
                kind=EventKind.CUSTOM,
                handler=on_probe,
            )
        try:
            engine.run(until=end_time)
            drain_arrivals()
            final_report = scheme.finish(end_time)
            self._consume(final_report, scheme, collector, end_time)
        finally:
            # Make the channel objects authoritative again before touching
            # them, then undo mutations still in effect (newest first) so the
            # snapshot can be restored for the next scheme.
            scheme.flush_state()
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

    def _epoch_cursor(self) -> _EpochArrivalCursor:
        """A fresh drain cursor over the workload's stable-sorted arrivals.

        The sorted request list and its float64 time view are computed once
        per runner and shared across schemes (the cursor only advances an
        index), so multi-scheme comparisons pay the sort a single time.
        """
        cached = self._epoch_arrivals
        if cached is None or cached[0] is not self.workload.requests:
            times, ordered = self.workload._sorted_arrivals()
            cached = (self.workload.requests, np.asarray(times, dtype=float), ordered)
            self._epoch_arrivals = cached
        return _EpochArrivalCursor(cached[1], cached[2])

    def _schedule_dynamics(
        self,
        engine: SimulationEngine,
        events: Sequence[NetworkDynamicsEvent],
        scheme: RoutingScheme,
        drain_arrivals: Callable[[], None],
    ) -> Dict[int, Callable[[], None]]:
        """Schedule dynamics events plus their timed reverts on the engine.

        Every mutation is bracketed by the scheme's fast-path hooks: buffered
        arrivals are drained and array state is flushed *before* the network
        changes (the mutation may read or rewrite channel balances), and the
        scheme is told to invalidate its mirrors *after*.

        Returns the registry of outstanding undo callables; entries are
        removed as timed reverts fire, and whatever remains at the end of the
        run must be executed by the caller.
        """
        outstanding: Dict[int, Callable[[], None]] = {}
        keys = itertools.count()

        def on_dynamics(_engine: SimulationEngine, event) -> None:
            dynamics_event = event.payload
            drain_arrivals()
            scheme.flush_state()
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
                    scheme.flush_state()
                    revert()
                    scheme.on_network_change()
                    inner = obs.RECORDER
                    if inner.enabled:
                        inner.trace_event(
                            "dynamics.revert", _e.now,
                            event=type(dynamics_event).__name__,
                        )

            _engine.schedule_at(
                _engine.now + dynamics_event.duration,
                kind=EventKind.TOPOLOGY_CHANGE,
                handler=on_revert,
            )

        for dynamics_event in events:
            engine.schedule_at(
                dynamics_event.time,
                kind=EventKind.TOPOLOGY_CHANGE,
                payload=dynamics_event,
                handler=on_dynamics,
            )
        return outstanding

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _reset_network(self) -> None:
        self.network.release_all_locks()
        self._reconcile_topology()
        self.network.restore(self._snapshot)
        self.network.reset_stats()

    def _reconcile_topology(self) -> None:
        """Force the channel set back to the snapshotted topology.

        The dynamics undo stack restores the topology on its own in every
        normal run; this is the safety net for pathological event
        combinations (e.g. a close and an open overlapping on the same node
        pair, where one undo consumes the other's effect).  Channels the
        snapshot does not know are removed, channels it knows but the network
        lost are recreated; ``restore`` then resets every balance.
        """
        snapshot_pairs = {frozenset(pair): pair for pair in self._snapshot}
        for channel in list(self.network.channels()):
            if frozenset(channel.endpoints) not in snapshot_pairs:
                self.network.remove_channel(*channel.endpoints)
        for key, (node_a, node_b) in snapshot_pairs.items():
            if not self.network.has_channel(node_a, node_b):
                balances = self._snapshot[(node_a, node_b)]
                base_fee, fee_rate = self._channel_fees[key]
                self.network.add_channel(
                    node_a, node_b, balances[node_a], balances[node_b], base_fee, fee_rate
                )

    def _consume(
        self,
        report: SchemeStepReport,
        scheme: RoutingScheme,
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
            collector.record_completed(payment, extra_delay=scheme.extra_delay(payment))
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


def compare_schemes(
    network: PCNetwork,
    workload: "TransactionWorkload | StreamingWorkload",
    schemes: Sequence[RoutingScheme],
    step_size: float = 0.1,
    drain_time: float = 5.0,
    parameters: Optional[Dict[str, object]] = None,
    dynamics: Optional[Sequence[NetworkDynamicsEvent]] = None,
    batch_arrivals: bool = True,
    engine: str = "events",
) -> ExperimentResult:
    """One-call convenience wrapper used by the examples and benchmarks."""
    runner = ExperimentRunner(
        network,
        workload,
        step_size=step_size,
        drain_time=drain_time,
        dynamics=dynamics,
        batch_arrivals=batch_arrivals,
        engine=engine,
    )
    return runner.run(schemes, parameters=parameters)

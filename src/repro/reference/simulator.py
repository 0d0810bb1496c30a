"""Arrival delivery, one heap event per payment: the simulator's oracle.

The production :class:`~repro.simulator.experiment.ExperimentRunner` never
puts an arrival on the event heap; it drains a sorted cursor at every tick,
dynamics event, timed revert and at the end of the run.  This module keeps
the definition that drain has to agree with, in the most literal form a
discrete-event simulator offers: every request is its own
``PAYMENT_ARRIVAL`` event, handled at its own arrival time by counting it
as generated and calling ``scheme.route_batch([request])``.

Delivery order is then whatever the engine's ``(time, sequence)`` heap
says.  Arrivals are scheduled in request-list order and before the tick
series, the dynamics events and the health probes, so

* simultaneous arrivals are delivered in list order,
* an arrival at exactly a tick, a dynamics event or a timed revert is
  delivered before it,
* an arrival after ``duration + drain_time`` is never popped, hence never
  delivered and never counted.

Everything else -- network reset, ticks, dynamics, metrics -- is inherited
unchanged, so a differential test that swaps this runner in isolates the
arrival path.  Streamed workloads have no request list; collect them with
:func:`repro.reference.workload.materialize` first.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.base import RoutingScheme
from repro.simulator.engine import SimulationEngine
from repro.simulator.events import Event, EventKind
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.metrics import MetricsCollector


class PerEventRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that delivers every arrival as an event."""

    def _arrival_drain(
        self, engine: SimulationEngine, scheme: RoutingScheme, collector: MetricsCollector
    ) -> Callable[[], None]:
        def on_arrival(_engine: SimulationEngine, event: Event) -> None:
            request = event.payload
            collector.record_generated(request.value)
            scheme.route_batch([request])

        for request in self.workload.requests:
            engine.schedule_at(
                request.arrival_time,
                kind=EventKind.PAYMENT_ARRIVAL,
                payload=request,
                handler=on_arrival,
            )
        # Nothing is ever buffered, so the drain points have nothing to do.
        return lambda: None

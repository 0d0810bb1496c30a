"""A minimal discrete-event simulation engine.

The engine keeps a priority queue of :class:`~repro.simulator.events.Event`
objects and executes them in time order.  Handlers may schedule further
events (including periodic ticks), which is how the evaluation harness
drives routing-scheme steps and epoch synchronization.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.simulator.events import Event


class SimulationEngine:
    """Priority-queue driven discrete-event simulator."""

    def __init__(self) -> None:
        self._queue: List[Event] = []
        self.now = 0.0
        self.processed_events = 0

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, event: Event) -> None:
        """Add an event to the queue.  Scheduling in the past is an error."""
        if event.time < self.now - 1e-12:
            raise ValueError(f"cannot schedule an event at {event.time} before now ({self.now})")
        heapq.heappush(self._queue, event)

    def schedule_at(
        self,
        time: float,
        payload: object = None,
        handler: Optional[Callable[["SimulationEngine", Event], None]] = None,
    ) -> Event:
        """Convenience wrapper building and scheduling an event."""
        event = Event(time=time, payload=payload, handler=handler)
        self.schedule(event)
        return event

    def schedule_periodic(
        self,
        start: float,
        interval: float,
        end: float,
        handler: Optional[Callable[["SimulationEngine", Event], None]] = None,
    ) -> int:
        """Schedule a periodic event train; returns the number of occurrences."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        count = 0
        time = start
        while time <= end + 1e-12:
            self.schedule(Event(time=time, handler=handler))
            time += interval
            count += 1
        return count

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, until: Optional[float] = None) -> None:
        """Process events in time order, each through its handler.

        Args:
            until: Stop once the next event would fire after this time.
        """
        while self._queue:
            if until is not None and self._queue[0].time > until + 1e-12:
                break
            event = heapq.heappop(self._queue)
            self.now = max(self.now, event.time)
            if event.handler is not None:
                event.handler(self, event)
            self.processed_events += 1
        if until is not None:
            self.now = max(self.now, until)

    def pending_count(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

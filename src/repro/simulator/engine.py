"""A minimal discrete-event simulation engine.

The engine keeps a priority queue of :class:`~repro.simulator.events.Event`
objects and executes them in time order.  Handlers may schedule further
events (including periodic ticks), which is how the evaluation harness
drives routing-scheme steps and epoch synchronization.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.simulator.events import Event, EventKind


class SimulationEngine:
    """Priority-queue driven discrete-event simulator."""

    def __init__(self) -> None:
        self._queue: List[Event] = []
        self.now = 0.0
        self.processed_events = 0
        self._stopped = False

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
        kind: EventKind = EventKind.CUSTOM,
        payload: object = None,
        handler: Optional[Callable[["SimulationEngine", Event], None]] = None,
    ) -> Event:
        """Convenience wrapper building and scheduling an event."""
        event = Event(time=time, kind=kind, payload=payload, handler=handler)
        self.schedule(event)
        return event

    def schedule_periodic(
        self,
        start: float,
        interval: float,
        end: float,
        kind: EventKind = EventKind.SCHEME_TICK,
        handler: Optional[Callable[["SimulationEngine", Event], None]] = None,
    ) -> int:
        """Schedule a periodic event train; returns the number of occurrences."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        count = 0
        time = start
        while time <= end + 1e-12:
            self.schedule(Event(time=time, kind=kind, handler=handler))
            time += interval
            count += 1
        return count

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        collect_events: bool = False,
    ) -> List[Event]:
        """Process events in time order.

        Args:
            until: Stop once the next event would fire after this time.
            max_events: Stop after processing this many events.
            collect_events: Accumulate and return handler-less events.  Off by
                default: a caller that ignores the return value (the
                experiment runner processes everything through handlers) would
                otherwise retain every handler-less event for the whole run.

        Returns:
            Events that had no handler (the caller is expected to act on
            them) when ``collect_events`` is set; an empty list otherwise.
        """
        unhandled: List[Event] = []
        processed = 0
        self._stopped = False
        while self._queue and not self._stopped:
            if until is not None and self._queue[0].time > until + 1e-12:
                break
            if max_events is not None and processed >= max_events:
                break
            event = heapq.heappop(self._queue)
            self.now = max(self.now, event.time)
            if event.handler is not None:
                event.handler(self, event)
            elif collect_events:
                unhandled.append(event)
            self.processed_events += 1
            processed += 1
        if until is not None:
            self.now = max(self.now, until)
        return unhandled

    def pending_count(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

"""Event types for the discrete-event simulation engine."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

_sequence = itertools.count()


@dataclass(order=True)
class Event:
    """A scheduled simulation event.

    Events order by time, then by a monotonically increasing sequence number
    so that simultaneous events execute in scheduling order (deterministic).

    Attributes:
        time: Simulation time at which the event fires.
        sequence: Tie-breaking sequence number (assigned automatically).
        payload: Arbitrary data for the handler.
        handler: Optional callable invoked as ``handler(engine, event)``;
            an event without one only advances the clock.
    """

    time: float
    sequence: int = field(default_factory=lambda: next(_sequence))
    payload: Any = field(default=None, compare=False)
    handler: Optional[Callable[["object", "Event"], None]] = field(default=None, compare=False)

"""Congestion control: waiting queues, delay marking and per-path windows.

Lines 10-18 of Algorithm 2.  Whenever a transaction unit cannot be sent
immediately (the path's rate budget is exhausted, its window is full, or a
channel lacks funds), it waits in a queue.  The controller

* bounds the amount of queued value (the paper uses an 8000-token queue per
  channel),
* marks units whose queueing delay exceeds the threshold ``T`` (marked units
  are only forwarded, and the sender may abort them),
* maintains one sending *window* per path: the maximum number of unfinished
  units allowed on the path.  The window shrinks additively by ``beta`` on an
  abort (equation 27) and grows by ``gamma / sum of the pair's windows`` on a
  success (equation 28).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.routing.transaction import TransactionUnit

NodeId = Hashable
Path = Tuple[NodeId, ...]

#: Paper defaults (section V-A).
DEFAULT_QUEUE_LIMIT = 8000.0
DEFAULT_DELAY_THRESHOLD = 0.4
DEFAULT_BETA = 10.0
DEFAULT_GAMMA = 0.1
DEFAULT_INITIAL_WINDOW = 50.0
MIN_WINDOW = 1.0


@dataclass
class PathWindow:
    """Sending window of one path.

    Attributes:
        size: Maximum number of unfinished (in-flight) units allowed.
        in_flight: Units currently outstanding on the path.
    """

    size: float = DEFAULT_INITIAL_WINDOW
    in_flight: int = 0

    def can_send(self) -> bool:
        """Whether another unit may be launched on the path."""
        return self.in_flight < self.size

    def on_launch(self) -> None:
        """Record that a unit entered the path."""
        self.in_flight += 1

    def on_complete(self, pair_window_total: float, gamma: float) -> None:
        """A unit finished successfully: grow the window (equation 28)."""
        self.in_flight = max(self.in_flight - 1, 0)
        denominator = max(pair_window_total, MIN_WINDOW)
        self.size += gamma / denominator

    def on_abort(self, beta: float) -> None:
        """A unit was aborted: shrink the window additively (equation 27)."""
        self.in_flight = max(self.in_flight - 1, 0)
        self.size = max(self.size - beta, MIN_WINDOW)


@dataclass
class QueuedUnit:
    """A transaction unit waiting in a hub's queue."""

    unit: TransactionUnit
    enqueued_at: float

    def waiting_time(self, now: float) -> float:
        """How long the unit has been queued."""
        return max(now - self.enqueued_at, 0.0)


class CongestionController:
    """Queue, marking and window management for one routing engine.

    The controller is shared by all pairs the engine serves and keeps no
    per-pair state: windows are keyed by path (pairs share them), the caller
    supplies a pair's paths where equation (28) needs them, and queue
    occupancy is tracked per source hub (the entity that would hold the
    queue in the deployed system).
    """

    def __init__(
        self,
        queue_limit: float = DEFAULT_QUEUE_LIMIT,
        delay_threshold: float = DEFAULT_DELAY_THRESHOLD,
        beta: float = DEFAULT_BETA,
        gamma: float = DEFAULT_GAMMA,
        initial_window: float = DEFAULT_INITIAL_WINDOW,
    ) -> None:
        if queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if delay_threshold <= 0:
            raise ValueError("delay_threshold must be positive")
        self.queue_limit = float(queue_limit)
        self.delay_threshold = float(delay_threshold)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.initial_window = float(initial_window)
        self._windows: Dict[Path, PathWindow] = {}
        self._queued_value: Dict[NodeId, float] = {}

    # ------------------------------------------------------------------ #
    # window management
    # ------------------------------------------------------------------ #
    def window(self, path: Sequence[NodeId]) -> PathWindow:
        """The window of a path (created on first use)."""
        key = tuple(path)
        if key not in self._windows:
            self._windows[key] = PathWindow(size=self.initial_window)
        return self._windows[key]

    def can_send(self, path: Sequence[NodeId]) -> bool:
        """Whether the path's window allows launching another unit."""
        return self.window(path).can_send()

    def on_launch(self, path: Sequence[NodeId]) -> None:
        """Record a unit entering a path."""
        self.window(path).on_launch()

    def on_complete(self, path: Sequence[NodeId], pair_paths: Sequence[Path]) -> None:
        """Record a unit completing on a path (grows its window).

        ``pair_paths`` are the paths registered for the unit's pair; their
        window sizes sum to the denominator of equation (28).
        """
        pair_total = sum(self.window(pair_path).size for pair_path in pair_paths)
        self.window(path).on_complete(pair_total, self.gamma)

    def on_abort(self, path: Sequence[NodeId]) -> None:
        """Record a unit aborting on a path (shrinks its window)."""
        self.window(path).on_abort(self.beta)

    # ------------------------------------------------------------------ #
    # queue management
    # ------------------------------------------------------------------ #
    def can_enqueue(self, hub: NodeId, value: float) -> bool:
        """Whether the hub's queue has room for ``value`` more tokens."""
        return self._queued_value.get(hub, 0.0) + value <= self.queue_limit

    def on_enqueue(self, hub: NodeId, value: float) -> None:
        """Record queued value at a hub."""
        self._queued_value[hub] = self._queued_value.get(hub, 0.0) + value

    def on_dequeue(self, hub: NodeId, value: float) -> None:
        """Remove queued value from a hub."""
        remaining = self._queued_value.get(hub, 0.0) - value
        self._queued_value[hub] = max(remaining, 0.0)

    def queued_value(self, hub: NodeId) -> float:
        """Total value currently queued at a hub (``q_amount``)."""
        return self._queued_value.get(hub, 0.0)

    # ------------------------------------------------------------------ #
    # delay marking
    # ------------------------------------------------------------------ #
    def should_mark(self, queued: QueuedUnit, now: float) -> bool:
        """Whether a queued unit has exceeded the delay threshold ``T``."""
        return queued.waiting_time(now) > self.delay_threshold

    def mark_overdue(self, queued_units: Iterable[QueuedUnit], now: float) -> List[TransactionUnit]:
        """Mark all overdue units and return the newly-marked ones."""
        newly_marked = []
        for queued in queued_units:
            if not queued.unit.marked and self.should_mark(queued, now):
                queued.unit.marked = True
                newly_marked.append(queued.unit)
        return newly_marked

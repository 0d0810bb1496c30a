"""Congestion windows: the per-path half of Algorithm 2's congestion control.

The router keeps one sending *window* per path: the maximum number of
unfinished units allowed on the path.  The window shrinks additively by
``beta`` on an abort (equation 27) and grows by ``gamma / sum of the pair's
windows`` on a success (equation 28).  From the initial 50 units only a run
of aborts on a path (five at the paper's ``beta``) brings a window down to
where it refuses units: the figure-1 circulation does, and Spider's paths do
at 2000 nodes and 2000 payments.

The paper's queue-delay marking (threshold ``T``) is not implemented: a mark
had no reader.  The queue itself, and its per-sender value bound, live in
:class:`repro.routing.router.RateRouter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Sequence, Tuple

NodeId = Hashable
Path = Tuple[NodeId, ...]

#: Paper defaults (section V-A).
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


class CongestionController:
    """The windows of one routing engine.

    Windows are keyed by path (pairs share them) and the controller keeps no
    per-pair state: the caller supplies a pair's paths where equation (28)
    needs them.
    """

    def __init__(
        self,
        beta: float = DEFAULT_BETA,
        gamma: float = DEFAULT_GAMMA,
        initial_window: float = DEFAULT_INITIAL_WINDOW,
    ) -> None:
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.initial_window = float(initial_window)
        self._windows: Dict[Path, PathWindow] = {}

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

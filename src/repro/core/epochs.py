"""Epoch-based bounded-synchronous communication (figure 5 of the paper).

Splicer runs in epochs: at the start of epoch ``e+1`` every PCH obtains and
synchronizes the final global state of epoch ``e`` (topology, channel state,
flow rates), then makes routing decisions for the requests its own clients
submitted in epoch ``e+1``.  :class:`EpochClock` tracks epoch boundaries and
:class:`SyncRecord` accounts for the messages and delay each synchronization
round costs -- the quantity the placement problem's synchronization cost
models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Tuple

NodeId = Hashable


@dataclass
class SyncRecord:
    """Accounting for one epoch-boundary synchronization round."""

    epoch: int
    hub_pairs: int
    messages: int
    total_hops: int
    max_delay: float


@dataclass
class EpochClock:
    """Tracks epoch boundaries for a fixed epoch duration.

    Attributes:
        duration: Epoch length in seconds.
        current_epoch: Index of the epoch containing the latest observed time.
    """

    duration: float
    current_epoch: int = 0
    _sync_messages: int = field(default=0, init=False, repr=False)
    _sync_hops: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("epoch duration must be positive")

    def epoch_of(self, now: float) -> int:
        """The epoch index containing time ``now``."""
        return int(now // self.duration)

    def crossed_boundary(self, now: float) -> bool:
        """Whether ``now`` lies in a later epoch than the last observed one."""
        return self.epoch_of(now) > self.current_epoch

    def advance(self, now: float) -> int:
        """Advance to the epoch containing ``now``; returns epochs crossed."""
        new_epoch = self.epoch_of(now)
        crossed = max(new_epoch - self.current_epoch, 0)
        self.current_epoch = max(self.current_epoch, new_epoch)
        return crossed

    # ------------------------------------------------------------------ #
    # synchronization accounting
    # ------------------------------------------------------------------ #
    def record_sync(
        self,
        hub_hop_counts: Dict[Tuple[NodeId, NodeId], int],
        hop_delay: float,
    ) -> SyncRecord:
        """Record one synchronization round among the placed hubs.

        The round is added to the running totals and returned; the clock
        keeps no per-round history.

        Args:
            hub_hop_counts: Communication hops for every ordered pair of hubs
                that exchanges state.
            hop_delay: One-way delay per hop.
        """
        messages = len(hub_hop_counts)
        total_hops = sum(hub_hop_counts.values())
        max_delay = max((hops * hop_delay for hops in hub_hop_counts.values()), default=0.0)
        record = SyncRecord(
            epoch=self.current_epoch,
            hub_pairs=messages,
            messages=messages,
            total_hops=total_hops,
            max_delay=max_delay,
        )
        self._sync_messages += messages
        self._sync_hops += total_hops
        return record

    def total_sync_messages(self) -> int:
        """Total hub-to-hub messages across all recorded rounds."""
        return self._sync_messages

    def total_sync_hops(self) -> int:
        """Total hop traversals consumed by synchronization traffic."""
        return self._sync_hops

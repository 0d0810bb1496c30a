"""Waiting-queue scheduling policies (Table II, "Scheduling Algorithm").

The router queues transaction units that cannot be sent immediately.  The
order in which queued units are served when capacity frees up is a pluggable
policy; the paper evaluates four:

* ``fifo`` -- first in, first out,
* ``lifo`` -- last in, first out (the paper's best performer: it serves the
  units farthest from their deadline first),
* ``spf``  -- smallest payment first,
* ``edf``  -- earliest deadline first.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.routing.transaction import TransactionUnit

Scheduler = Callable[[Sequence[TransactionUnit]], List[TransactionUnit]]


def fifo(units: Sequence[TransactionUnit]) -> List[TransactionUnit]:
    """Serve units in arrival order (oldest first)."""
    return sorted(units, key=lambda unit: (unit.created_at, unit.unit_id))


def lifo(units: Sequence[TransactionUnit]) -> List[TransactionUnit]:
    """Serve the most recently arrived units first."""
    return sorted(units, key=lambda unit: (unit.created_at, unit.unit_id), reverse=True)


def spf(units: Sequence[TransactionUnit]) -> List[TransactionUnit]:
    """Serve the smallest units first."""
    return sorted(units, key=lambda unit: (unit.value, unit.unit_id))


def edf(units: Sequence[TransactionUnit]) -> List[TransactionUnit]:
    """Serve the units closest to their deadline first."""
    return sorted(units, key=lambda unit: (unit.deadline, unit.unit_id))


#: Registry keyed by the names used in Table II.
SCHEDULERS: Dict[str, Scheduler] = {
    "fifo": fifo,
    "lifo": lifo,
    "spf": spf,
    "edf": edf,
}


def get_scheduler(name: str) -> Scheduler:
    """Look up a scheduler by name (``fifo``/``lifo``/``spf``/``edf``)."""
    try:
        return SCHEDULERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; expected one of {sorted(SCHEDULERS)}"
        ) from None

"""The Splicer system: multi-PCH payment routing with optimized placement.

This subpackage ties the substrates together into the system of the paper:

* :class:`~repro.core.config.SplicerConfig` collects every tunable parameter
  with the paper's defaults,
* :func:`~repro.core.voting.multiwinner_vote` elects the smooth-node
  candidates when the network designates none,
* :class:`~repro.core.epochs.EpochClock` models the bounded-synchronous
  epoch communication,
* :class:`~repro.core.splicer.SplicerSystem` is the public facade: give it a
  network, it elects candidates, solves placement, maps every client to its
  smooth node, routes payments deadlock-free and counts the messages of the
  section III-A workflow.
"""

from repro.core.config import SplicerConfig
from repro.core.epochs import EpochClock
from repro.core.splicer import SplicerSystem
from repro.core.voting import multiwinner_vote

__all__ = [
    "SplicerConfig",
    "EpochClock",
    "SplicerSystem",
    "multiwinner_vote",
]

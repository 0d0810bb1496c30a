"""Splicer's configuration and candidate election.

* :class:`~repro.core.config.SplicerConfig` collects every tunable parameter
  with the paper's defaults,
* :func:`~repro.core.voting.multiwinner_vote` elects the smooth-node
  candidates when the network designates none.

The system itself -- election, placement, the client -> hub map, epoch
synchronization, the counted section III-A workflow and the rate router
behind the hubs -- is :class:`~repro.baselines.splicer_scheme.SplicerScheme`.
"""

from repro.core.config import SplicerConfig
from repro.core.voting import multiwinner_vote

__all__ = [
    "SplicerConfig",
    "multiwinner_vote",
]

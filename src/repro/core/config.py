"""Configuration for the Splicer system.

All defaults follow section V-A of the paper: 3-second transaction timeout,
Min-TU of 1 token, Max-TU of 4 tokens, 5 routing paths, 200 ms update time,
8000-token queues and the hop-based placement cost coefficients.  The paper's
400 ms queueing-delay threshold has no field: the router does not mark
delayed units.  Nor do its window factors beta=10 and gamma=0.1 (equations
27-28): the router keeps no congestion windows, which changed no measured
outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.routing.router import RouterConfig


@dataclass
class SplicerConfig:
    """Every tunable parameter of a Splicer deployment.

    Attributes:
        router: Routing-protocol parameters (paths, rates, prices, queues).
        omega: Placement weight between management and synchronization costs.
        placement_method: Placement algorithm (``auto``/``milp``/``exact``/``greedy``).
        placement_seed: Seed for the randomized placement approximation.
        candidate_count: Number of smooth-node candidates elected by the
            voting contract when the network does not already designate them
            (``None`` keeps the network's candidate set).
        kmg_size: Number of smooth nodes forming the key management group (iota).
        epoch_duration: Length of one communication epoch in seconds.
        payment_timeout: Transaction deadline in seconds (paper: 3 s).
        client_hub_hop_delay: One-way communication delay per hop between a
            client and its smooth node, used for the management-delay metric.
        hub_sync_hop_delay: One-way delay per hop between smooth nodes, used
            for the synchronization-delay metric.
    """

    router: RouterConfig = field(default_factory=RouterConfig)
    omega: float = 0.05
    placement_method: str = "auto"
    placement_seed: Optional[int] = 0
    candidate_count: Optional[int] = None
    kmg_size: int = 3
    epoch_duration: float = 1.0
    payment_timeout: float = 3.0
    client_hub_hop_delay: float = 0.01
    hub_sync_hop_delay: float = 0.01

    def __post_init__(self) -> None:
        if self.omega < 0:
            raise ValueError("omega must be non-negative")
        if self.kmg_size < 1:
            raise ValueError("the key management group needs at least one member")
        if self.epoch_duration <= 0:
            raise ValueError("epoch_duration must be positive")
        if self.payment_timeout <= 0:
            raise ValueError("payment_timeout must be positive")

    def with_router(self, **changes: object) -> "SplicerConfig":
        """A copy of the configuration with some router fields replaced."""
        return replace(self, router=replace(self.router, **changes))

    @classmethod
    def paper_defaults(cls) -> "SplicerConfig":
        """The configuration used by the paper's evaluation."""
        return cls()

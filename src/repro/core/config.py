"""Configuration for the Splicer system.

All defaults follow section V-A of the paper: 5 routing paths, 200 ms update
time and the hop-based placement cost coefficients.  Min-TU of 1 token,
Max-TU of 4 tokens, 8000-token queues and the step sizes are router
constants (:class:`~repro.routing.router.RateRouter`), not config.  The
paper's 3-second transaction timeout is every scheme's
:attr:`~repro.baselines.base.RoutingScheme.timeout`, and the randomized
placement approximation always draws from seed 0.  The paper's 400 ms
queueing-delay threshold has no field: the router does not mark delayed
units.  Nor do its window factors beta=10 and gamma=0.1 (equations 27-28):
the router keeps no congestion windows, which changed no measured outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.routing.router import RouterConfig


@dataclass
class SplicerConfig:
    """The parameters a Splicer experiment sweeps.

    The paper's key management group size (iota) has no field: the section
    III-A workflow is counted, not simulated -- three management messages per
    client submission and one ACK per completed client payment -- since its
    toy encryption handed every demand back unchanged and moved no outcome
    but the message count.

    Attributes:
        router: Routing-protocol settings (paths, scheduler, tau, ablations).
        omega: Placement weight between management and synchronization costs.
        placement_method: Placement algorithm (``auto``/``milp``/``exact``/``greedy``).
    """

    router: RouterConfig = field(default_factory=RouterConfig)
    omega: float = 0.05
    placement_method: str = "greedy"

    def __post_init__(self) -> None:
        if self.omega < 0:
            raise ValueError("omega must be non-negative")

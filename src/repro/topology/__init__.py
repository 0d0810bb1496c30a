"""Payment channel network topology substrate.

This subpackage models the structural layer of a payment channel network
(PCN): bidirectional payment channels with per-direction balances and
in-flight locks, the graph that connects them, topology generators used by
the paper's evaluation (Watts-Strogatz small-world, scale-free, star and
multi-star hub topologies), and synthetic data distributions that stand in
for the Lightning Network channel-size snapshot and the credit-card
transaction-value dataset referenced by the paper.
"""

from repro.topology.channel import ChannelClosedError, InsufficientFundsError, PaymentChannel
from repro.topology.datasets import (
    ChannelSizeDistribution,
    TransactionValueDistribution,
    lightning_like_channel_sizes,
)
from repro.topology.generators import (
    grid_pcn,
    multi_star_pcn,
    random_pcn,
    scale_free_pcn,
    star_pcn,
    watts_strogatz_pcn,
)
from repro.topology.network import PCNetwork

__all__ = [
    "PaymentChannel",
    "ChannelClosedError",
    "InsufficientFundsError",
    "NoPath",
    "NodeNotFound",
    "PCNetwork",
    "ChannelSizeDistribution",
    "TransactionValueDistribution",
    "lightning_like_channel_sizes",
    "watts_strogatz_pcn",
    "scale_free_pcn",
    "random_pcn",
    "grid_pcn",
    "star_pcn",
    "multi_star_pcn",
]


def __getattr__(name: str):
    # The path kernels' exception classes live with the kernels, which no
    # import of the package loads: resolved on first use, like
    # ``PCNetwork.graph_arrays`` imports the kernels themselves.
    if name in ("NoPath", "NodeNotFound"):
        from repro.topology import csr

        return getattr(csr, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Quickstart: build a PCN, place the hubs, and route a payment through one.

Run with::

    python examples/quickstart.py

The script builds a 60-node Watts-Strogatz payment channel network funded
from the paper's channel-size distribution, lets Splicer elect and place its
smooth nodes, and then pushes one payment through the workflow (client ->
smooth node -> multi-path rate-based routing -> acknowledgment), whose
messages Splicer counts as overhead.
"""

from repro.core.config import SplicerConfig
from repro.core.splicer import SplicerSystem
from repro.topology.datasets import ChannelSizeDistribution
from repro.topology.generators import watts_strogatz_pcn


def main() -> None:
    network = watts_strogatz_pcn(
        node_count=60,
        nearest_neighbors=6,
        rewire_probability=0.25,
        channel_sizes=ChannelSizeDistribution(),
        candidate_fraction=0.15,
        seed=7,
    )
    print(f"Built a PCN with {network.node_count()} nodes and {network.channel_count()} channels")
    print(f"Total collateral locked in channels: {network.total_funds():.0f} tokens")

    system = SplicerSystem(network, SplicerConfig(placement_method="auto", placement_seed=0))
    plan = system.setup()
    print(f"\nPlacement ({plan.method}): {plan.hub_count} smooth nodes, "
          f"balance cost {plan.balance_cost:.3f}")
    for hub, load in sorted(plan.load_per_hub().items(), key=lambda item: str(item[0])):
        print(f"  hub {hub}: serves {load} clients")

    clients = sorted(system.clients, key=str)
    sender, recipient = clients[0], clients[-1]
    print(f"\nSending 25 tokens from {sender} to {recipient} ...")
    decision = system.submit_payment(sender, recipient, 25.0, now=0.0)
    print(f"  payment id: {decision.payment.payment_id} (via hub {system.hub_of(sender)})")
    print(f"  split into {len(decision.payment.units)} transaction units "
          f"over {len(decision.paths)} candidate paths")

    system.run(duration=3.0)
    payment = decision.payment
    if payment.is_complete:
        print(f"  completed in {payment.latency:.2f}s "
              f"({payment.hops_used} channel hops, acks forwarded: {system.acks_forwarded})")
    else:
        print(f"  payment did not complete (status: {payment.status.value})")


if __name__ == "__main__":
    main()

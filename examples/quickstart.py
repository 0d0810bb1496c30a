"""Quickstart: build a PCN, place the hubs, and route a payment through one.

Run with::

    python examples/quickstart.py

The script builds a 60-node Watts-Strogatz payment channel network funded
from the paper's channel-size distribution, lets Splicer elect and place its
smooth nodes, and then pushes one payment through the workflow (client ->
smooth node -> multi-path rate-based routing -> acknowledgment), whose
messages Splicer counts as overhead.
"""

from repro.baselines.splicer_scheme import SplicerScheme
from repro.core.config import SplicerConfig
from repro.simulator.workload import TransactionRequest
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

    splicer = SplicerScheme(SplicerConfig(placement_method="auto", placement_seed=0))
    splicer.prepare(network)
    plan = splicer.placement_plan
    print(f"\nPlacement ({plan.method}): {plan.hub_count} smooth nodes, "
          f"balance cost {plan.balance_cost:.3f}")
    for hub, load in sorted(plan.load_per_hub().items(), key=lambda item: str(item[0])):
        print(f"  hub {hub}: serves {load} clients")

    clients = sorted(plan.assignment, key=str)
    sender, recipient = clients[0], clients[-1]
    print(f"\nSending 25 tokens from {sender} to {recipient} ...")
    request = TransactionRequest(arrival_time=0.0, sender=sender, recipient=recipient, value=25.0)
    payment = splicer.submit(request, now=0.0)
    print(f"  payment id: {payment.payment_id} (via hub {plan.assignment[sender]})")
    print(f"  split into {len(payment.units)} transaction units")

    dt = splicer.config.router.update_interval
    for index in range(1, round(3.0 / dt) + 1):
        splicer.step(index * dt, dt)
    if payment.is_complete:
        print(f"  completed in {payment.latency:.2f}s "
              f"({payment.hops_used} channel hops, acks forwarded: {splicer.acks_forwarded})")
    else:
        print(f"  payment did not complete (status: {payment.status.value})")
    print(f"  control messages so far: {splicer.overhead_messages():.0f}")


if __name__ == "__main__":
    main()

"""Deadlock demo: the three-node example of the paper's figure 1.

A and C both push funds towards B, while B only returns funds to A.  A
router that ignores channel balance drains C's side of the (C, B) channel
and the whole circulation wedges (figure 1(c)).  Splicer's imbalance price
throttles the overloaded direction, keeps the relay liquid, and lets the
sustainable A <-> B circulation keep completing.

Run with::

    python examples/deadlock_demo.py
"""

from repro.routing.router import RateRouter, RouterConfig
from repro.routing.transaction import Payment
from repro.topology.network import PCNetwork


def build_triangle() -> PCNetwork:
    """The paper's figure-1 topology: A - C - B with 10 tokens per side."""
    network = PCNetwork()
    for node in ("A", "B", "C"):
        network.add_node(node)
    network.add_channel("A", "C", 10.0, 10.0)
    network.add_channel("C", "B", 10.0, 10.0)
    return network


ROUNDS = 60


class DemoRouter(RateRouter):
    """The router with a steeper imbalance price and faster hops.

    At the paper's ``eta`` of 0.1 the imbalance price grows too slowly to
    throttle C -> B within this short run: both halves would print the
    same numbers.
    """

    eta = 0.5
    hop_delay = 0.01


def run(imbalance_pricing: bool) -> dict:
    network = build_triangle()
    config = RouterConfig(path_count=1, imbalance_pricing_enabled=imbalance_pricing)
    router = DemoRouter(network, config)
    submitted = []  # (round, payment)
    now = 0.0
    for round_number in range(ROUNDS):
        now = round_number * 0.3
        for sender, recipient, value in (("A", "B", 1.0), ("C", "B", 2.0), ("B", "A", 2.0)):
            payment = Payment.create(sender, recipient, value, created_at=now, timeout=3.0)
            router.submit(payment, now)
            submitted.append((round_number, payment))
        for sub_step in range(1, 4):
            router.step(now + sub_step * 0.1, 0.1)
    router.drain(now + 0.3, 0.1, max_steps=200)

    thirds = {"early (rounds 0-19)": 0, "middle (rounds 20-39)": 0, "late (rounds 40-59)": 0}
    for round_number, payment in submitted:
        if not payment.is_complete:
            continue
        if round_number < 20:
            thirds["early (rounds 0-19)"] += 1
        elif round_number < 40:
            thirds["middle (rounds 20-39)"] += 1
        else:
            thirds["late (rounds 40-59)"] += 1
    total_value = sum(p.value for _, p in submitted if p.is_complete)
    return {
        "completed payments per third": thirds,
        "total value delivered": round(total_value, 1),
        "relay funds C->B left": round(network.channel("C", "B").balance("C"), 2),
    }


def main() -> None:
    print("Figure-1 workload, per 0.3s round: A->B 1 token, C->B 2 tokens, B->A 2 tokens\n")
    for label, flag in (("WITHOUT imbalance pricing (deadlock-prone)", False),
                        ("WITH imbalance pricing (Splicer)", True)):
        stats = run(flag)
        print(label)
        for key, value in stats.items():
            print(f"  {key}: {value}")
        print()
    print(
        "Without balance-aware routing every demand is executed greedily:"
        " the relay channel (C, B) drains to zero and the network wedges in"
        " the state of figure 1(c).  With Splicer's imbalance price the"
        " unsustainable C->B direction is throttled once it has net-drained"
        " too far, so the relay retains liquidity instead of hitting zero."
        "  In this three-node toy there is no alternative path, so throttling"
        " shows up as refused payments; in a real PCN (see"
        " examples/scheme_comparison.py) the preserved liquidity is what"
        " keeps multi-path routing alive and raises the overall success"
        " ratio."
    )


if __name__ == "__main__":
    main()
